package core

// This file is the HotCalls fabric: the multi-requester design the paper
// sketches but never builds (Section 4.2, "Maximizing utilization" /
// "Conserving resources at idle times"), grown into a runnable runtime.
//
// The paper's single slot pairs all requesters with one responder through
// one spin lock: every submission ping-pongs the same cache line between
// cores, and only one call can be in flight at a time.  The fabric is a
// CallPool (hotcalls.go configures one as that slot):
//
//   - One shard per requester goroutine.  A shard is a small ring of
//     cache-line-padded slots owned by exactly one requester, so the
//     submission path takes no lock at all: the requester writes the
//     call's id and data into its next ring slot and publishes it with
//     one release store.  Requester-written words and responder-written
//     words live on separate cache lines, so a responder finishing one
//     call never invalidates the line a requester is busy writing.
//
//   - A pool of responders (scale.go) claims work across shards through
//     a per-shard tail cursor: one compare-and-swap claims a posted slot
//     exclusively, so any number of responders can drain any shard
//     without double-executing a call.
//
//   - The ring depth is the per-requester window: a requester may keep
//     up to SlotsPerShard asynchronous calls in flight (Submit/Wait),
//     which is what lets one polling quantum of a responder drain a
//     whole batch — the "merging several threads' queues" economics of
//     Section 4.2 — instead of paying a scheduling handoff per call.
//
// The request path allocates nothing: call data is a typed uint64 (no
// interface{} boxing), and async PoolPending handles come from a
// sync.Pool.  TestPoolCallZeroAlloc and BenchmarkPoolCall assert this.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hotcalls/internal/flight"
	"hotcalls/internal/sdk"
	"hotcalls/internal/telemetry"
)

// cacheLine is the coherence granule the slot layout is padded to.  x86
// parts prefetch line pairs, so hot structures are padded to two lines
// where adjacent-line false sharing would hurt.
const cacheLine = 64

// Slot states.  A slot cycles posted ← idle ← done ← posted; the claim
// step (responder taking ownership) is the shard tail CAS, not a state
// transition, so the responder writes the state word exactly once per
// call (the done release-store that doubles as the completion signal).
//
// A claimed slot therefore still reads posted until its handler returns.
// With a window as deep as the ring the claim cursor wraps onto such
// slots, so the posted word carries the ring position it was posted at
// (see posted): a responder counts a slot into its run only when the
// stamp equals the position it is about to claim, and a slot one lap
// behind never matches.
const (
	slotIdle uint64 = iota
	slotPosted
	slotDone
)

// posted is the state word of a call posted at ring position pos.  The
// position is the requester's head when it posts and the responder's
// t+run when it claims, so the stamp costs neither side an extra store
// or read-modify-write.
func posted(pos uint64) uint64 { return pos<<2 | slotPosted }

// poolSlot is one call cell.  Layout matters:
//
//	line 0 (requester-written): state, id, data, nseg.  The state word is
//	  the handoff flag both sides read, but only the requester and the
//	  one claiming responder ever write it, one store each per call.
//	  nseg rides here so the 0-segment legacy path clears it on a line it
//	  is already writing, never touching line 1.
//	line 1 (requester-written): the scatter-gather descriptor block
//	  (ring.go).  Only zero-copy calls write it; the slotPosted release
//	  store on line 0 is its publication fence, exactly as for fr.
//	line 2 (responder-written): ret.  Kept off the requester lines so the
//	  responder storing a result does not invalidate a line a pipelining
//	  requester is concurrently posting its next call on.
//
// fr is the call's flight record (nil on unsampled calls or with the
// recorder detached).  It rides line 0 with the other requester-written
// words: the requester stores it before the slotPosted release store and
// the responder reads it after the acquire load of state, so the
// existing handoff protocol is also its publication fence.
type poolSlot struct {
	state atomic.Uint64
	id    CallID
	data  uint64
	fr    *flight.Record
	nseg  uint32
	_     [cacheLine - 36]byte
	segs  [MaxSegs]Segment
	_     [cacheLine - 12*MaxSegs]byte
	ret   uint64
	_     [cacheLine - 8]byte
}

// PoolFunc is a fabric call-table entry.  requester identifies the
// submitting shard (stable for the life of the pool), which is how
// applications address per-requester buffers without boxing pointers
// through the call word; data is the call's typed payload.
type PoolFunc func(requester int, data uint64) uint64

// shard is one requester's ring.  head is owned by the requester alone
// (no atomics needed); tail is the responders' claim cursor.  They sit
// on separate cache lines so requester posting and responder claiming
// never false-share.
type shard struct {
	slots []poolSlot
	mask  uint64

	_    [cacheLine - 24]byte
	head uint64 // next post position; requester-owned
	_    [cacheLine - 8]byte
	tail atomic.Uint64 // next claim position; responder-shared
	_    [cacheLine - 8]byte
}

// postedRun counts the posted calls from claim position t, up to limit:
// what a tail CAS from t may claim.  Each slot must carry the stamp of
// the position being claimed: a slot claimed a lap ago and not finished
// still reads posted, but at its own position.
func (sh *shard) postedRun(t uint64, limit int) (run int) {
	for run < limit && sh.slots[(t+uint64(run))&sh.mask].state.Load() == posted(t+uint64(run)) {
		run++
	}
	return run
}

// PoolOptions tunes a CallPool.  The zero value selects the defaults
// noted on each field.
type PoolOptions struct {
	// Shards is the number of requester slots rings (default
	// GOMAXPROCS).  Requester() hands them out; creating more
	// requesters than shards panics.
	Shards int

	// SlotsPerShard is the ring depth — the per-requester async window
	// (default 64, rounded up to a power of two).
	SlotsPerShard int

	// MaxResponders caps the adaptive responder pool (default
	// GOMAXPROCS; see scale.go).  The floor is minResponders.
	MaxResponders int

	// Timeout is the submission-attempt limit before Call/Submit gives
	// up with ErrTimeout, the paper's starvation fallback (default
	// DefaultTimeout).  Each attempt re-checks the requester's own ring
	// slot, so a timeout means the window stayed full — the responders
	// are saturated — for that many attempts.
	Timeout int

	// RingSlabs enables the zero-copy payload rings (ring.go): each
	// requester shard gets this many fixed-size slabs carved from one
	// shared allocation at pool construction (default 0 — no rings).
	RingSlabs int

	// RingSlabBytes is the slab size (default 64 KiB when rings are
	// enabled).  A scatter-gather segment never crosses a slab, so this
	// bounds the largest single zero-copy transfer unit.
	RingSlabBytes int
}

func (o *PoolOptions) fill() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.SlotsPerShard <= 0 {
		o.SlotsPerShard = 64
	}
	// Round the ring up to a power of two so post/claim positions mask
	// instead of dividing.
	n := 1
	for n < o.SlotsPerShard {
		n <<= 1
	}
	o.SlotsPerShard = n
	if o.MaxResponders <= 0 {
		o.MaxResponders = runtime.GOMAXPROCS(0)
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.RingSlabs > 0 && o.RingSlabBytes <= 0 {
		o.RingSlabBytes = 64 << 10
	}
}

// CallPool is the fabric: sharded slot rings on the requester side, an
// adaptive responder pool (scale.go) on the other.  Create with
// NewCallPool, attach telemetry before Start, hand out shards with
// Requester, and Stop when done.
type CallPool struct {
	opts   PoolOptions
	policy responderPolicy
	shards []*shard
	table  []PoolFunc

	// vtable is the scatter-gather call table (SetVecTable); a posted
	// slot with nseg > 0 dispatches here instead of table.
	vtable []PoolVecFunc

	// rings holds one zero-copy payload ring per shard, nil unless
	// PoolOptions.RingSlabs > 0 (see ring.go).
	rings []*PayloadRing

	nextShard atomic.Int32
	stopped   atomic.Bool

	// Idle-responder parking.  sleepers counts responders inside the
	// wake wait; a requester that posts while it is non-zero runs the
	// call itself (Requester.help) and signals only through kick, which
	// kicked keeps to one outstanding wake.
	sleepers atomic.Int32
	kicked   atomic.Bool
	wake     sdk.Cond

	// Adaptive-pool state (scale.go).
	target   atomic.Int32
	live     atomic.Int32
	polls    atomic.Uint64 // slot inspections, pool-wide
	executes atomic.Uint64 // claimed calls, pool-wide
	wg       sync.WaitGroup

	// Controller bookkeeping: last-window totals, read and written only
	// by the primary responder inside control(), so plain fields.
	ctrlPolls    uint64
	ctrlExecutes uint64

	pendingPool sync.Pool
	batchPool   sync.Pool

	// flight is the per-callsite flight recorder, nil until SetFlight.
	// The hot path pays one nil-check when detached; when attached,
	// every call costs one arrival count and 1-in-SampleEvery calls
	// get a full causal-timeline record (see internal/flight).
	flight *flight.Recorder

	// Telemetry handles, nil (no-op) until SetTelemetry; cached so the
	// hot path never does a registry lookup.
	requests   *telemetry.Counter
	timeouts   *telemetry.Counter
	pollCtr    *telemetry.Counter
	executeCtr *telemetry.Counter
	kickCtr    *telemetry.Counter
	inlineCtr  *telemetry.Counter
	liveGauge  *telemetry.Gauge
	maxGauge   *telemetry.Gauge
	occGauge   *telemetry.Gauge

	// spinMax caps the completion wait's spin phase (see await): 0 on a
	// single P, where no responder can run while the requester spins.
	spinMax int

	// rejected counts scatter-gather calls refused at dispatch (execRun)
	// and fallbacks the timeouts CallOrFallback degraded; appended last,
	// so that a new handle moves no field the hot path reads.
	rejected  *telemetry.Counter
	fallbacks *telemetry.Counter
}

// NewCallPool builds a fabric over the given call table.  Responders do
// not run until Start.
func NewCallPool(table []PoolFunc, opts PoolOptions) *CallPool {
	opts.fill()
	p := &CallPool{opts: opts, policy: defaultPolicy, table: table}
	if runtime.GOMAXPROCS(0) > 1 {
		p.spinMax = spinBudget
	}
	p.shards = make([]*shard, opts.Shards)
	for i := range p.shards {
		p.shards[i] = &shard{
			slots: make([]poolSlot, opts.SlotsPerShard),
			mask:  uint64(opts.SlotsPerShard - 1),
		}
	}
	if opts.RingSlabs > 0 {
		p.rings = make([]*PayloadRing, opts.Shards)
		for i := range p.rings {
			p.rings[i] = newPayloadRing(opts.RingSlabs, opts.RingSlabBytes)
		}
	}
	p.target.Store(p.policy.floor)
	p.pendingPool.New = func() any { return new(PoolPending) }
	p.batchPool.New = func() any { return new(PoolBatch) }
	return p
}

// SetVecTable attaches the scatter-gather call table: entry id handles
// zero-copy calls posted with CallZC/SubmitV segments.  The id
// space is independent of the plain table (a slot's segment count picks
// the table).  Attach before Start.
func (p *CallPool) SetVecTable(vt []PoolVecFunc) { p.vtable = vt }

// SetTelemetry attaches the fabric's counters and gauges from the
// registry: submission traffic, responder economics (poll and execute
// counts, from which the monitor derives occupancy), and the pool's size
// and window occupancy.  A nil registry detaches.  Attach before Start.
func (p *CallPool) SetTelemetry(reg *telemetry.Registry) {
	p.requests = reg.Counter(telemetry.MetricHotCallRequests)
	p.timeouts = reg.Counter(telemetry.MetricHotCallTimeouts)
	p.pollCtr = reg.Counter(telemetry.MetricResponderPolls)
	p.executeCtr = reg.Counter(telemetry.MetricResponderExecutes)
	p.kickCtr = reg.Counter(telemetry.MetricResponderKicks)
	p.inlineCtr = reg.Counter(telemetry.MetricHotCallInline)
	p.rejected = reg.Counter(telemetry.MetricHotCallRejected)
	p.fallbacks = reg.Counter(telemetry.MetricHotCallFallbacks)
	p.liveGauge = reg.Gauge(telemetry.MetricPoolResponders)
	p.maxGauge = reg.Gauge(telemetry.MetricPoolRespondersMax)
	p.occGauge = reg.Gauge(telemetry.MetricPoolOccupancyMilli)
	p.maxGauge.Set(int64(p.opts.MaxResponders))
}

// SetFlight attaches the flight recorder: binds one record ring per
// shard and turns on per-callsite arrival counting and timeline
// sampling for every subsequent call.  A recorder binds to one pool
// (flight.Recorder.Bind panics on a second); a nil recorder detaches.
// Attach before Start.
func (p *CallPool) SetFlight(rec *flight.Recorder) {
	rec.Bind(len(p.shards)) // nil-safe
	p.flight = rec
}

// Flight returns the attached flight recorder (nil when detached).
func (p *CallPool) Flight() *flight.Recorder { return p.flight }

// Requester binds the next free shard to the calling goroutine and
// returns its handle.  A Requester must be used from one goroutine at a
// time; the pool supports at most Shards of them.
func (p *CallPool) Requester() *Requester {
	idx := int(p.nextShard.Add(1)) - 1
	if idx >= len(p.shards) {
		panic("core: CallPool requesters exhausted (raise PoolOptions.Shards)")
	}
	return &Requester{pool: p, shard: p.shards[idx], idx: idx, spin: p.spinMax, gap: 4 * wakeSeed, wake: wakeSeed}
}

// Stop shuts the fabric down: responders exit after their current call,
// sleeping responders are woken, and subsequent or in-flight
// submissions fail with ErrStopped.
func (p *CallPool) Stop() {
	p.stopped.Store(true)
	p.wake.Broadcast()
	p.wg.Wait()
	p.liveGauge.Set(0)
}

// Stopped reports whether Stop has been called.
func (p *CallPool) Stopped() bool { return p.stopped.Load() }

// Requester is one shard's submission handle.
type Requester struct {
	pool  *CallPool
	shard *shard
	idx   int

	// Requester-goroutine-owned, like the shard head: the completion
	// wait's spin budget and probe counter (see await), whether the
	// latest post found a responder parked, and the wake policy's state:
	// when the last inline run ended, and the moving averages of the gap
	// between such runs and of what a kick cost this requester (see help).
	spin       int
	waits      uint
	parked     bool
	lastInline time.Duration // since epoch
	gap, wake  time.Duration

	// segs is the descriptor scratch help's inline runs execute from
	// (see execRun): the requester's own, like a responder's.
	segs [MaxSegs]Segment
}

// spinBudget caps the polls a completion wait spends on cpuRelax before
// it yields; every spinProbe-th wait retries the full cap.
const (
	spinBudget = 256
	spinProbe  = 64
)

// wakeSeed is what a wake is taken to cost until a requester has timed
// its own, and the floor of that estimate afterwards: a Signal that finds
// the responder's thread still looking for work is nearly free, and an
// estimate that followed it down would never kick again.
const wakeSeed = 10 * time.Microsecond

// epoch is the zero of the wake policy's clock: time.Since reads the
// monotonic clock alone, half of what time.Now costs an inline call.
var epoch = time.Now()

// await is the fabric's one completion wait: it polls s until the
// responder's done store and collects the call — flight record closed,
// slot handed back to the ring — or returns ErrStopped.  The result stays
// in s.ret until this requester posts the slot again; callers that want
// it read it there, so WaitAll(nil) never pulls the responder-written line.
// A requester whose latest post found a responder parked first runs its
// own posted calls up to s (see help) and normally finds s done.
// Otherwise the spin phase polls with cpuRelax, so a call a running
// responder finishes in a microsecond never enters the scheduler; past
// the budget every poll is a Gosched, which is what lets a responder
// sharing this P run at all.  The budget tunes itself: a wait that
// exhausts it halves it, one that completes while spinning restores the
// cap, one already complete says nothing, and the probe keeps a budget
// that starved responders drove to zero (set-up, oversubscription) from
// staying there.
func (r *Requester) await(s *poolSlot, fr *flight.Record) error {
	p := r.pool
	if r.parked && r.help(s) && p.stopped.Load() {
		// In flight across Stop, like a call a responder holds.
		p.flight.Stopped(fr)
		return ErrStopped
	}
	i, budget := 0, 0
	for ; s.state.Load() != slotDone; i++ {
		if p.stopped.Load() {
			p.flight.Stopped(fr)
			return ErrStopped
		}
		if i == 0 {
			budget = r.spin
			if r.waits++; r.waits%spinProbe == 0 {
				budget = p.spinMax
			}
		}
		if i < budget {
			cpuRelax()
			continue
		}
		if i == budget && budget > 0 {
			r.spin /= 2
		}
		runtime.Gosched()
	}
	if 0 < i && i <= budget {
		r.spin = p.spinMax
	}
	if fr != nil && p.flight != nil {
		// Complete = Return + the tail sampler's outlier check
		// (one plain cutoff load + compare).
		p.flight.Complete(fr)
	}
	s.state.Store(slotIdle)
	return nil
}

// help is the paper's fallback for an unavailable responder (Section
// 4.2) kept inside the fabric: the requester claims its own posted calls
// from the shard's claim cursor up to and including s — the stamped run
// count and tail CAS a responder uses, so whoever wins the CAS executes
// the run and the other never sees it — and runs them on its own thread,
// in ring order.  It reports whether it ran anything.  Callers gate it on
// r.parked: with the responders awake the calls are theirs.
//
// The wake is decided afterwards, off the calls' path: when the moving
// average of the gaps between inline runs falls below what a kick has
// cost this requester, calls are arriving faster than a wake costs and
// are worth a responder.  A paced open loop never kicks; a closed loop
// does after a handful of calls (DESIGN.md section 9).
func (r *Requester) help(s *poolSlot) (ran bool) {
	st := s.state.Load()
	if st&3 != slotPosted {
		return false
	}
	p, sh, pos := r.pool, r.shard, st>>2
	for !p.stopped.Load() {
		t := sh.tail.Load()
		run := sh.postedRun(t, int(pos-t)+1)
		if run == 0 {
			break // the cursor is past s: claimed, by this loop or a responder
		}
		if sh.tail.CompareAndSwap(t, t+uint64(run)) {
			p.execRun(sh, r.idx, flight.InlineResponder, &r.segs, t, run)
			p.inlineCtr.Add(uint64(run))
			ran = true
		}
	}
	if !ran {
		return false
	}
	// One gap counts for at most four wakes: the first call after an
	// idle hour says "idle until now" and no more.
	now := time.Since(epoch)
	r.gap += (min(now-r.lastInline, 4*r.wake) - r.gap) / 4
	r.lastInline = now
	if r.gap < r.wake && p.kick() {
		r.wake = max(wakeSeed, r.wake+(time.Since(epoch)-now-r.wake)/4)
		// The runtime readied the responder on this P: yielding runs it
		// now, and the thread the wake started takes one of the two.
		runtime.Gosched()
	}
	return true
}

// Index returns the requester's stable shard index, the value handlers
// receive as their requester argument.
func (r *Requester) Index() int { return r.idx }

// post plants one call in the requester's ring, spinning through the
// attempt budget when the window is full.  segs is the call's
// scatter-gather list, at most MaxSegs long (ErrTooManySegments beyond:
// the slot holds no more): its descriptor block is written on its own
// requester-owned line before the slotPosted release store that publishes
// slab bytes and descriptors together.  Without segments that line stays
// untouched, and the cleared count — on the line already being written —
// keeps a reused slot from replaying a prior call's descriptors.  A
// sampled call's flight record carries its payload bytes.  On success
// the slot pointer and the call's flight record (nil when unsampled or
// detached) are returned for the completion wait.  The flight stamp
// happens before the submission spin, so a window-full wait is part of
// the recorded latency; the record is closed on every exit path, so a timeout or shutdown never leaves an
// open record to wedge the digest.
func (r *Requester) post(cs flight.Callsite, id CallID, data uint64, segs []Segment) (*poolSlot, *flight.Record, error) {
	if len(segs) > MaxSegs {
		return nil, nil, ErrTooManySegments
	}
	p := r.pool
	sh := r.shard
	p.requests.Inc()
	var fr *flight.Record
	if f := p.flight; f != nil {
		// Two-step Arrive/Open instead of Begin: Arrive inlines, so the
		// 255-in-256 unsampled calls pay no function call here.
		if f.Arrive(cs, r.idx) {
			fr = f.Open(cs, r.idx, uint16(id))
			fr.SetBytes(segTotal(segs))
			// Pool-state context only on sampled calls: these gauges live
			// on responder-shared cache lines, so reading them per call
			// would put a coherence miss on the unsampled path.
			fr.Context(int(sh.head-sh.tail.Load()), int(p.live.Load()), int(p.sleepers.Load()))
		}
	}
	for attempt := 0; attempt < p.opts.Timeout; attempt++ {
		if p.stopped.Load() {
			p.flight.Stopped(fr)
			return nil, nil, ErrStopped
		}
		s := &sh.slots[sh.head&sh.mask]
		if s.state.Load() == slotIdle {
			s.id = id
			s.data = data
			if p.flight != nil {
				// Unconditional when attached (nil on unsampled calls)
				// so a slot never carries a stale record across reuse.
				s.fr = fr
			}
			s.nseg = uint32(len(segs))
			if len(segs) != 0 { // an empty copy is still a call to memmove
				copy(s.segs[:], segs)
			}
			s.state.Store(posted(sh.head))
			sh.head++
			// No signal: a parked responder makes the call this
			// requester's own to run when it waits (see help).
			r.parked = p.sleepers.Load() != 0
			return s, fr, nil
		}
		// Window full: every slot in the ring holds an in-flight or
		// un-reaped call.  Yield so responders (and, on a single
		// hardware thread, the goroutine that must reap) can run.
		pause()
	}
	p.timeouts.Inc()
	p.flight.Timeout(cs, r.idx, fr)
	return nil, nil, ErrTimeout
}

// Call executes call-table entry id with data through the fabric and
// waits for the result.  It returns ErrTimeout when the requester's
// window stayed full for the attempt budget (fall back to a regular SDK
// call, as in the paper's starvation mitigation) and ErrStopped after
// Stop.  The path performs no allocation.  Calls made through Call
// aggregate under the flight recorder's "(unlabelled)" callsite; use
// CallAt to attribute them.
func (r *Requester) Call(id CallID, data uint64) (uint64, error) {
	return r.CallAt(flight.Callsite{}, id, data)
}

// CallAt is Call stamped with a registered flight-recorder callsite, so
// the call's arrival rate, timeline, and wasted-spin share aggregate
// under that callsite in /debug/flight.
func (r *Requester) CallAt(cs flight.Callsite, id CallID, data uint64) (uint64, error) {
	s, fr, err := r.post(cs, id, data, nil)
	if err != nil {
		return 0, err
	}
	if err := r.await(s, fr); err != nil {
		return 0, err
	}
	return s.ret, nil
}

// CallOrFallback is Call with the paper's starvation mitigation: a
// submission timeout degrades to the fallback path instead of failing.
func (r *Requester) CallOrFallback(id CallID, data uint64, fallback func() (uint64, error)) (uint64, error) {
	return r.CallOrFallbackAt(flight.Callsite{}, id, data, fallback)
}

// CallOrFallbackAt is CallOrFallback with per-callsite flight
// attribution; fallback degradations count against the callsite.
func (r *Requester) CallOrFallbackAt(cs flight.Callsite, id CallID, data uint64, fallback func() (uint64, error)) (uint64, error) {
	ret, err := r.CallAt(cs, id, data)
	if err == ErrTimeout {
		r.pool.fallbacks.Inc()
		r.pool.flight.Fallback(cs)
		return fallback()
	}
	return ret, err
}

// PoolPending is a handle to an asynchronous fabric call.  Handles come
// from a sync.Pool and are recycled when the call is collected (on the
// requester's goroutine), so the steady-state Submit/Wait path allocates
// nothing.  A collected handle must not be reused.
type PoolPending struct {
	req  *Requester
	slot *poolSlot
	fr   *flight.Record
}

// Submit plants a call without waiting.  Up to SlotsPerShard calls may
// be in flight per requester; beyond that Submit spins on the window
// and eventually returns ErrTimeout.  Calls complete in submission
// order per requester (the ring is FIFO), so collecting the oldest
// Pending first keeps the window moving.  A call submitted while the
// responders are parked runs when the requester next waits or polls
// (see help), not in the background.
func (r *Requester) Submit(id CallID, data uint64) (*PoolPending, error) {
	return r.SubmitAt(flight.Callsite{}, id, data)
}

// SubmitAt is Submit stamped with a registered flight-recorder
// callsite (see CallAt).
func (r *Requester) SubmitAt(cs flight.Callsite, id CallID, data uint64) (*PoolPending, error) {
	s, fr, err := r.post(cs, id, data, nil)
	if err != nil {
		return nil, err
	}
	return r.pending(s, fr), nil
}

// pending wraps the call just posted in a recycled handle.
func (r *Requester) pending(s *poolSlot, fr *flight.Record) *PoolPending {
	pd := r.pool.pendingPool.Get().(*PoolPending)
	pd.req, pd.slot, pd.fr = r, s, fr
	return pd
}

// ErrNotComplete is returned by Poll while the call is in flight.
var ErrNotComplete = errors.New("core: async call not complete")

// Poll checks for completion without blocking.  Once it returns a
// result the handle is recycled and the slot is free for reuse.
func (pd *PoolPending) Poll() (uint64, error) {
	r := pd.req
	if r.parked {
		r.help(pd.slot) // with a responder parked, polling is what runs the call
	}
	if pd.slot.state.Load() != slotDone && !r.pool.stopped.Load() {
		return 0, ErrNotComplete
	}
	return pd.Wait()
}

// Wait blocks until the call completes — spinning briefly, then yielding
// (see await) — and recycles the handle.
func (pd *PoolPending) Wait() (uint64, error) {
	r := pd.req
	var ret uint64
	err := r.await(pd.slot, pd.fr)
	if err == nil {
		ret = pd.slot.ret
	}
	pd.req, pd.slot, pd.fr = nil, nil, nil
	r.pool.pendingPool.Put(pd)
	return ret, err
}
