// Package flight is the call fabric's flight recorder: a low-overhead
// ring of sampled causal call timelines.  Where internal/telemetry
// aggregates globally, the recorder answers what a *specific recent
// call* looked like from submit to return: which callsite made it, which
// responder claimed it, when its handler ran and how many payload bytes
// it carried.
//
// Design constraints mirror the CallPool hot path it instruments:
//
//  1. The unsampled path is one plain per-shard stride count and a
//     power-of-two mask check.  No time is read, nothing is allocated.
//
//  2. Sampled calls take a record from a preallocated per-requester
//     ring (mirroring CallPool's padded-slot design) and stamp the
//     causal timeline — submit, slot claim, responder execute
//     start/end, wait return — as all-atomic fields guarded by a
//     generation-encoded seqlock, so concurrent readers detect both
//     torn reads and ring-wraparound reuse without ever blocking a
//     writer.  Zero allocation, no locks.
//
// A recorder binds to one fabric, once (Bind, via CallPool.SetFlight).
// Records reads the rings back.
package flight

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// cacheLine matches internal/core's padding granule.
const cacheLine = 64

// UnlabelledName is callsite 0, stamped on calls made through APIs that
// never registered a callsite (plain Call, or a VecCall without Site).
const UnlabelledName = "(unlabelled)"

// Callsite is a cheap registered-callsite handle, stamped on every call
// as its VecCall.Site.  The zero value is the "(unlabelled)" callsite.
type Callsite struct{ id uint16 }

// DefaultSampleEvery is the zero-value Options sampling stride: 1
// timeline record per 256 calls per shard.
const DefaultSampleEvery = 256

// The recorder's fixed sizes.  A sampled call overwrites the oldest
// record of its shard's ring; registrations past maxCallsites fall back
// to the unlabelled callsite.
const (
	ringRecords  = 256 // per-requester record ring, a power of two
	maxCallsites = 64
)

// Options tunes a Recorder.  The zero value selects the defaults noted
// on each field.
type Options struct {
	// SampleEvery records the timeline of every SampleEvery-th call per
	// shard (default 256, rounded up to a power of two so the hot-path
	// check is a mask, not a division).  1 records every call.  The
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
	n := 1
	for n < o.SampleEvery {
		n <<= 1
	}
	o.SampleEvery = n
	if o.Now == nil {
		base := time.Now()
		o.Now = func() uint64 { return uint64(time.Since(base)) }
	}
}

// stride is one shard's arrival count, padded so neighbouring shards
// never false-share.  It is written by the shard's single producer with
// plain loads and stores — on x86 even an atomic.Uint64.Store is an XCHG
// full barrier, ~10ns against a ~100ns fabric call — and read by no one
// else.
type stride struct {
	n uint64
	_ [cacheLine - 8]byte
}

// binding is the recorder's per-fabric storage: one record ring and one
// stride counter per requester shard.  It is published through an
// atomic pointer so Records may run before, during or after Bind.
type binding struct {
	rings   []*ring
	strides []stride
}

// Recorder is the flight recorder.  Create with New, attach to a
// fabric with Bind (CallPool.SetFlight does this), register callsites
// with Callsite, and read back through Records.
type Recorder struct {
	opts       Options
	sampleMask uint64 // SampleEvery-1 (power of two)
	bind       atomic.Pointer[binding]

	// mu serialises callsite registration and binding.
	mu    sync.Mutex
	names []string
}

// New returns a recorder with the given options.
func New(opts Options) *Recorder {
	opts.fill()
	return &Recorder{
		opts:       opts,
		sampleMask: uint64(opts.SampleEvery - 1),
		names:      []string{UnlabelledName},
	}
}

// Now returns the recorder's monotonic nanosecond clock reading.
func (r *Recorder) Now() uint64 { return r.opts.Now() }

// Callsite registers (or looks up) a named callsite and returns its
// handle.  Registration is idempotent by name; past maxCallsites the
// unlabelled handle is returned so the caller keeps working, just
// without attribution.
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
// allocating the per-requester record rings and stride counters.  Called
// by CallPool.SetFlight (shards = requester count).  A recorder serves
// one fabric for its whole life: binding it a second time panics.
func (r *Recorder) Bind(shards int) {
	if r == nil || shards <= 0 {
		return
	}
	b := &binding{rings: make([]*ring, shards), strides: make([]stride, shards)}
	for i := range b.rings {
		b.rings[i] = newRing(ringRecords)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bind.Load() != nil {
		panic("flight: Recorder.Bind on a bound recorder: a recorder serves one fabric")
	}
	r.bind.Store(b)
}

// Arrive counts one arrival on the shard and reports whether this call
// is the 1-in-SampleEvery (every SampleEvery-th arrival) that gets a
// timeline record — the caller then invokes Open.  The caller stores
// Open's result unconditionally and stamps through nil-safe Record
// methods (including Record.Context for the submit-time pool state, so
// that state is only read on sampled calls).  This is the recorder's
// cost on every fabric call, so it is built from plain loads and stores
// only and must stay inside the compiler's inlining budget: one
// atomic-pointer load, one index, one plain counter bump, one mask test.
//
// Single-producer contract: a shard's counter must be driven by one
// goroutine at a time — the shard's owning requester.  That is what lets
// the count be a plain load+store with no LOCK-prefixed instruction.
//
// Unlike the package's other methods, Arrive requires a non-nil
// receiver: the fabric tests its recorder field once per call anyway,
// and the nil check was inlining budget the hot path can't spare.
func (r *Recorder) Arrive(shard int) bool {
	b := r.bind.Load()
	if b == nil || uint(shard) >= uint(len(b.strides)) {
		return false
	}
	st := &b.strides[shard]
	n := st.n + 1
	st.n = n
	return n&r.sampleMask == 0
}

// Open opens the timeline record for a call Arrive reported sampled:
// takes the shard ring's next slot and stamps identity and submit time.
func (r *Recorder) Open(cs Callsite, shard int, callID uint16) *Record {
	if r == nil {
		return nil
	}
	b := r.bind.Load()
	if b == nil || uint(shard) >= uint(len(b.rings)) {
		return nil
	}
	rec, gen := b.rings[shard].open()
	trace := uint64(shard+1)<<40 | (gen & (1<<40 - 1))
	rec.trace.Store(trace)
	rec.meta.Store(uint64(cs.id)<<48 | uint64(shard&0xffff)<<32)
	rec.ctx.Store(uint64(callID))
	rec.submit.Store(r.opts.Now())
	return rec
}

// Complete stamps the requester's wait-return time and closes the
// record.  Nil-safe on the record (the unsampled common case), so callers
// call it unconditionally.
func (r *Recorder) Complete(rec *Record) {
	if rec == nil {
		return
	}
	rec.ret.Store(r.opts.Now())
	rec.seq.Add(1)
}

// Timeout closes the open record, if any, marking the call as given up
// after the submission attempt budget.
func (r *Recorder) Timeout(rec *Record) {
	if r == nil {
		return
	}
	rec.closeWith(flagTimeout, r.opts.Now())
}

// Stopped closes the open record, if any, marking the call as cut off
// by fabric shutdown.
func (r *Recorder) Stopped(rec *Record) {
	if r == nil {
		return
	}
	rec.closeWith(flagStopped, r.opts.Now())
}
