// Package flight is the call fabric's flight recorder: an always-on,
// low-overhead observability layer that captures *per-callsite* causal
// call timelines and live statistics, read by /debug/flight, /metrics
// and incident bundles.  Where internal/telemetry aggregates globally,
// the recorder answers the per-callsite questions: how often was this
// callsite called, how long does its handler run, which of its calls
// timed out or straggled, and what did a *specific recent call* look
// like from submit to return.
//
// Design constraints mirror the CallPool hot path it instruments:
//
//  1. The unsampled path is two or three uncontended atomic operations:
//     a per-(shard,callsite) arrival count and a power-of-two sampling
//     check.  No time is read, nothing is allocated.
//
//  2. Sampled calls take a record from a preallocated per-requester
//     ring (mirroring CallPool's padded-slot design) and stamp the
//     causal timeline — submit, slot claim, responder execute
//     start/end, wait return — as all-atomic fields guarded by a
//     generation-encoded seqlock, so concurrent readers detect both
//     torn reads and ring-wraparound reuse without ever blocking a
//     writer.  Zero allocation, no locks.
//
//  3. Folding records into per-callsite statistics (service-time and
//     latency histograms, the tail sampler's cutoffs) happens off the
//     hot path in Digest, driven by the monitor tick or the /debug/flight
//     handler.
//
// A recorder binds to one fabric, once (Bind, via CallPool.SetFlight),
// and its tail sampler (tail.go) is always on: timeouts and latency
// stragglers are retained in an outlier ring and escalate their callsite
// to sample-every-call.
//
// Timeout and fallback counts are exact (counted on every such
// outcome).  Arrivals are counted on every call in producer-private
// memory and published to readers on each sampled call, so the visible
// total is exact whenever a lane pauses on a multiple of SampleEvery
// and otherwise lags the truth by at most SampleEvery-1 — the price of
// keeping the per-call path free of LOCK-prefixed instructions.
// Timelines and latency distributions are 1-in-SampleEvery samples.
// Stats returns the one per-callsite table.
package flight

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hotcalls/internal/telemetry"
)

// cacheLine matches internal/core's padding granule.
const cacheLine = 64

// UnlabelledName is callsite 0, stamped on calls made through APIs that
// never registered a callsite (plain Call/Submit).
const UnlabelledName = "(unlabelled)"

// Callsite is a cheap registered-callsite handle, stamped on every call
// at Call/Submit time.  The zero value is the "(unlabelled)" callsite,
// so unannotated call paths still aggregate somewhere visible.
type Callsite struct{ id uint16 }

// ID returns the callsite's stable index in the recorder's stats table.
func (c Callsite) ID() int { return int(c.id) }

// DefaultSampleEvery is the zero-value Options sampling stride: 1
// timeline record per 256 calls per (shard, callsite) lane.
const DefaultSampleEvery = 256

// The recorder's fixed sizes.  Sampled calls that outrun Digest by a
// full ring overwrite the oldest undigested records, counted as dropped;
// registrations past maxCallsites fall back to the unlabelled callsite.
const (
	ringRecords  = 256 // per-requester record ring, a power of two
	maxCallsites = 64  // rows of the stats table
)

// Options tunes a Recorder.  The zero value selects the defaults noted
// on each field.
type Options struct {
	// SampleEvery records the timeline of every SampleEvery-th call per
	// (shard, callsite) lane (default 256, rounded up to a power of
	// two so the hot-path check is a mask, not a division).  1 records
	// every call and makes the visible arrival counts exact; larger
	// strides publish arrivals on sampled calls only (see the package
	// comment).  Timeout/fallback counts are exact regardless.  The
	// default keeps the amortized sampled-call cost (~4 clock reads,
	// ~10 seqlocked field stamps, and a ring-slot open — roughly 400ns
	// on a host with ~55ns clock reads) under 0.5% of a ~100ns fabric
	// call while still yielding thousands of timeline records per
	// second at fabric call rates.
	SampleEvery int

	// Now is the monotonic nanosecond clock (default: nanoseconds
	// since New, via time.Since on the runtime's monotonic reading).
	// Injectable for deterministic tests.
	Now func() uint64
}

func (o *Options) fill() {
	if o.SampleEvery <= 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	o.SampleEvery = ceilPow2(o.SampleEvery)
	if o.Now == nil {
		base := time.Now()
		o.Now = func() uint64 { return uint64(time.Since(base)) }
	}
}

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// lane is one (shard, callsite) arrival counter, padded so lanes of
// neighbouring callsites on the same shard never false-share.  local
// is written by
// the lane's single producer with plain loads and stores — on x86 even
// an atomic.Uint64.Store is an XCHG full barrier, ~10ns against a
// ~100ns fabric call, so the per-call count must be genuinely plain —
// and published to the atomic field readers use only on sampled calls,
// from Open.  Sampling fires on each SampleEvery-th arrival, so a
// publish happens exactly when the count reaches a stride multiple:
// totals are exact whenever traffic pauses at a multiple of
// SampleEvery (which is what tests arrange), and between boundaries
// readers lag the true count by at most SampleEvery-1.
//
// mask is the lane's effective sampling mask: SampleEvery-1 normally,
// 0 while the tail sampler has the callsite escalated (every call gets
// a timeline record).  It lives on the lane's own cache line, which
// Arrive already touches for the counter, so swapping the recorder-
// global mask for the per-lane one added no line to the hot path.  It
// is atomic because escalation is written from other goroutines
// (another shard's timeout path, the digest), but on x86 the load is a
// plain MOV — no LOCK prefix enters the unsampled path.
type lane struct {
	local     uint64
	published atomic.Uint64
	mask      atomic.Uint64
	_         [cacheLine - 24]byte
}

// binding is the recorder's per-fabric storage: one record ring per
// requester shard plus the shard×callsite arrival lanes.  It is
// published through an atomic pointer so readers (Stats, Records, the
// /debug/flight handler) may run before, during or after Bind.
type binding struct {
	rings []*ring
	lanes []lane // row-major: shard*stride + callsite

	// Tail-sampler storage (see tail.go).  outliers is the per-shard
	// outlier retention ring — timeout/fallback and over-cutoff calls
	// are copied here so they survive main-ring churn; cutoffs is the
	// binding-local per-callsite latency cutoff in ns (MaxUint64 until
	// the digest has folded enough samples to set one), read with one
	// plain load on the sampled return path.
	outliers []*ring
	cutoffs  []atomic.Uint64 // indexed by callsite ID, length stride

	// stride is maxCallsites rounded up to a power of two, so Arrive
	// clamps a foreign callsite ID with one AND (siteMask = stride-1)
	// instead of a compare-and-branch — the branch was the difference
	// between the always-on arrival path inlining into the fabric's post
	// loop or not.  IDs from this recorder are < maxCallsites by
	// construction (Callsite falls back to the unlabelled slot when the
	// table is full); only a Callsite minted by a different Recorder can
	// reach the mask, and it aliases into [0, stride) harmlessly.
	stride   int
	siteMask int
}

// Recorder is the flight recorder.  Create with New, attach to a
// fabric with Bind (CallPool.SetFlight does this), register callsites
// with Callsite, and read back through Stats, Records, RenderText, or
// the /debug/flight Handler.
type Recorder struct {
	opts       Options
	sampleMask uint64 // SampleEvery-1 (power of two)
	bind       atomic.Pointer[binding]

	// mu serialises callsite registration and Digest (the only
	// consumer of ring cursors and stats state).
	mu      sync.Mutex
	names   []string
	cursors []uint64 // per-ring digest position (generation index)
	stats   []*csState

	// Exact per-callsite outcome counters (indexed by callsite ID,
	// allocated to maxCallsites at New).  Separate from the sampled
	// records so a timeout storm is visible even at SampleEvery=256.
	timeouts  []padCounter
	fallbacks []padCounter

	// Tail-sampler state (tail.go).  outlierSeen counts captured
	// outliers per callsite (written on the capture slow path);
	// seenAtDigest is the digest's last reading, which lets the capture
	// path decide escalation with plain loads; escalated marks callsites
	// currently sampling every call.
	outlierSeen  []padCounter
	seenAtDigest []atomic.Uint64
	escalated    []atomic.Uint32

	droppedstale  uint64 // records overwritten before digest reached them
	digestedCount uint64

	reg *telemetry.Registry // backing store for per-callsite histograms
}

type padCounter struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// New returns a recorder with the given options.
func New(opts Options) *Recorder {
	opts.fill()
	r := &Recorder{
		opts:         opts,
		sampleMask:   uint64(opts.SampleEvery - 1),
		names:        []string{UnlabelledName},
		timeouts:     make([]padCounter, maxCallsites),
		fallbacks:    make([]padCounter, maxCallsites),
		outlierSeen:  make([]padCounter, maxCallsites),
		seenAtDigest: make([]atomic.Uint64, maxCallsites),
		escalated:    make([]atomic.Uint32, maxCallsites),
		reg:          telemetry.New(),
	}
	return r
}

// Now returns the recorder's monotonic nanosecond clock reading.
func (r *Recorder) Now() uint64 { return r.opts.Now() }

// Callsite registers (or looks up) a named callsite and returns its
// handle.  Registration is idempotent by name; past maxCallsites the
// unlabelled handle is returned so the caller keeps working, just
// without per-callsite attribution.
func (r *Recorder) Callsite(name string) Callsite {
	if r == nil || name == "" {
		return Callsite{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == name {
			return Callsite{uint16(i)}
		}
	}
	if len(r.names) >= maxCallsites {
		return Callsite{}
	}
	r.names = append(r.names, name)
	return Callsite{uint16(len(r.names) - 1)}
}

// CallsiteName resolves a callsite ID back to its registered name.
func (r *Recorder) CallsiteName(id int) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.names) {
		return fmt.Sprintf("callsite#%d", id)
	}
	return r.names[id]
}

// Bind attaches the recorder to a fabric of the given shard count,
// allocating the per-requester record rings, outlier rings and arrival
// lanes.  Called by CallPool.SetFlight (shards = requester count).  A
// recorder serves one fabric for its whole life: binding it a second
// time panics.
func (r *Recorder) Bind(shards int) {
	if r == nil || shards <= 0 {
		return
	}
	stride := ceilPow2(maxCallsites)
	b := &binding{
		rings:    make([]*ring, shards),
		lanes:    make([]lane, shards*stride),
		stride:   stride,
		siteMask: stride - 1,
		outliers: make([]*ring, shards),
		cutoffs:  make([]atomic.Uint64, stride),
	}
	for i := range b.rings {
		b.rings[i] = newRing(ringRecords)
		b.outliers[i] = newRing(outlierRecords)
	}
	for i := range b.lanes {
		b.lanes[i].mask.Store(r.sampleMask)
	}
	for i := range b.cutoffs {
		b.cutoffs[i].Store(noCutoff)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bind.Load() != nil {
		panic("flight: Recorder.Bind on a bound recorder: a recorder serves one fabric")
	}
	r.cursors = make([]uint64, shards)
	r.bind.Store(b)
}

// Begin counts one arrival on the (shard, callsite) lane and, for 1 in
// SampleEvery arrivals, opens a timeline record with the submit time
// stamped.  Returns nil on unsampled calls, on an unbound recorder, or
// on a nil receiver — the caller stores the result unconditionally and
// stamps through nil-safe Record methods (including Record.Context for
// the submit-time pool state, so that state is only read on sampled
// calls).
//
// Single-producer contract: a given (shard) lane must be driven by one
// goroutine at a time — the shard's owning requester.  That is what
// lets the unsampled path be a plain load+store count and a mask check,
// with no LOCK-prefixed instruction; the sampled path additionally takes
// a preallocated ring slot and reads the clock once.  Nothing allocates.
// Begin is Arrive + Open in one call, for callers off the nanosecond
// path (tests).  The fabric's post loop uses the two-step form
// instead: Arrive is small enough to inline, so the
// 255-in-256 unsampled calls pay a handful of inlined instructions and
// no function call.
func (r *Recorder) Begin(cs Callsite, shard int, callID uint16) *Record {
	if r == nil || !r.Arrive(cs, shard) {
		return nil
	}
	return r.Open(cs, shard, callID)
}

// Arrive counts one arrival on the (shard, callsite) lane and reports
// whether this call is the 1-in-SampleEvery (every SampleEvery-th
// arrival) that gets a timeline record — the caller then invokes Open,
// which also publishes the count to readers.  This is the recorder's
// always-on cost, paid by every fabric call, so it is built from plain
// loads and stores only — the single-producer lane contract (see
// Begin's doc) makes that legal, and the lane comment explains the
// publication protocol that keeps readers race-free — and it must stay
// inside the compiler's inlining budget: one atomic-pointer load, one
// index, one plain counter bump, one mask test.
//
// Unlike the package's other methods, Arrive requires a non-nil
// receiver: the fabric tests its recorder field once per call anyway,
// and the nil check was inlining budget the hot path can't spare.
func (r *Recorder) Arrive(cs Callsite, shard int) bool {
	b := r.bind.Load()
	if b == nil || uint(shard) >= uint(len(b.rings)) {
		return false
	}
	ln := &b.lanes[shard*b.stride+(int(cs.id)&b.siteMask)]
	n := ln.local + 1
	ln.local = n
	return n&ln.mask.Load() == 0
}

// Open opens the timeline record for a call Arrive reported sampled.
// It also publishes the lane's arrival count (it runs on the lane's
// producer goroutine, right after the Arrive that sampled this call), so
// a lane is visible to readers from its first call.
func (r *Recorder) Open(cs Callsite, shard int, callID uint16) *Record {
	if r == nil {
		return nil
	}
	b := r.bind.Load()
	if b == nil || uint(shard) >= uint(len(b.rings)) {
		return nil
	}
	ln := &b.lanes[shard*b.stride+(int(cs.id)&b.siteMask)]
	ln.published.Store(ln.local)
	return r.beginSampled(b, cs, shard, callID)
}

// beginSampled opens a timeline record for a 1-in-SampleEvery call:
// takes the shard ring's next slot and stamps identity and submit time.
func (r *Recorder) beginSampled(b *binding, cs Callsite, shard int, callID uint16) *Record {
	rec, gen := b.rings[shard].open()
	trace := uint64(shard+1)<<40 | (gen & (1<<40 - 1))
	rec.trace.Store(trace)
	rec.meta.Store(uint64(cs.id)<<48 | uint64(shard&0xffff)<<32)
	rec.ctx.Store(uint64(callID))
	rec.submit.Store(r.opts.Now())
	return rec
}

// Timeout records a submission timeout for the callsite (exact count)
// and closes the open record, if any, with the timeout flag.  shard is
// the submitting requester's shard.
// The timeout is also retained in the shard's outlier ring — copied
// from the record if the call was sampled, otherwise synthesized as a
// partial record (submit 0, timeout flag, end-of-life stamp) so even
// unsampled timeouts leave forensic evidence — and the callsite
// escalates to sample-every-call immediately, so the *next* timeout
// carries a complete timeline.
func (r *Recorder) Timeout(cs Callsite, shard int, rec *Record) {
	if r == nil {
		return
	}
	r.timeouts[int(cs.id)%len(r.timeouts)].n.Add(1)
	now := r.opts.Now()
	rec.closeWith(flagTimeout, now)
	b := r.bind.Load()
	if b == nil || uint(shard) >= uint(len(b.outliers)) {
		return
	}
	if rec != nil {
		r.captureOutlier(b, rec, shard)
	} else {
		dst, gen := b.outliers[shard].openMP()
		dst.trace.Store(0)
		dst.meta.Store(uint64(cs.id)<<48 | uint64(shard&0xffff)<<32 | flagTimeout)
		dst.ctx.Store(0)
		dst.submit.Store(0)
		dst.ret.Store(now)
		dst.seq.Store(2*gen + 2)
	}
	r.noteOutlier(int(cs.id)&b.siteMask, true)
}

// Stopped closes the open record, if any, marking the call as cut off
// by fabric shutdown.
func (r *Recorder) Stopped(rec *Record) {
	if r == nil {
		return
	}
	rec.closeWith(flagStopped, r.opts.Now())
}

// Fallback records that the callsite degraded to the SDK fallback path
// after a timeout (exact count).
func (r *Recorder) Fallback(cs Callsite) {
	if r == nil {
		return
	}
	r.fallbacks[int(cs.id)%len(r.fallbacks)].n.Add(1)
}

// Dropped returns how many sampled records were overwritten by ring
// wraparound before Digest reached them.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedstale
}

// Digested returns how many closed records Digest has folded into the
// stats table.
func (r *Recorder) Digested() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digestedCount
}
