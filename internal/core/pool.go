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
//     up to SlotsPerShard asynchronous calls in flight (SubmitV/WaitAll),
//     which is what lets one polling quantum of a responder drain a
//     whole batch — the "merging several threads' queues" economics of
//     Section 4.2 — instead of paying a scheduling handoff per call.
//
// Every call is a VecCall: a call_ID, a typed uint64 (no interface{}
// boxing) and an optional scatter-gather list.  Call and CallV run one
// and wait; SubmitV posts a window and WaitAll collects it.  The request
// path allocates nothing: a requester keeps one PoolBatch handle per ring
// position.  TestPoolCallZeroAlloc and BenchmarkPoolCall assert this.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
//	  store on line 0 is its publication fence.
//	line 2 (responder-written): ret.  Kept off the requester lines so the
//	  responder storing a result does not invalidate a line a pipelining
//	  requester is concurrently posting its next call on.
//
// TestPoolSlotLayout pins the three lines.
type poolSlot struct {
	state atomic.Uint64
	id    CallID
	data  uint64
	nseg  uint32
	_     [cacheLine - 28]byte
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

	// Timeout is the submission-attempt limit before Call/SubmitV gives
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
	target atomic.Int32
	live   atomic.Int32

	// polls and executes are stored by every responder on every pass and
	// claim, so they sit a full line away from every other field: their
	// stores never invalidate a line a post reads, whatever address the
	// pool lands at (TestPoolCountersOwnTheirLine).
	_        [cacheLine]byte
	polls    atomic.Uint64 // slot inspections, pool-wide
	executes atomic.Uint64 // claimed calls, pool-wide
	_        [cacheLine]byte

	wg sync.WaitGroup

	// Controller bookkeeping: last-window totals, read and written only
	// by the primary responder inside control(), so plain fields.
	ctrlPolls    uint64
	ctrlExecutes uint64

	// Telemetry handles, nil (no-op) until SetTelemetry; cached so the
	// hot path never does a registry lookup.
	kickCtr   *telemetry.Counter
	inlineCtr *telemetry.Counter

	// spinMax caps the completion wait's spin phase (see await): 0 on a
	// single P, where no responder can run while the requester spins.
	spinMax int

	// rejected counts scatter-gather calls refused at dispatch (execRun).
	rejected *telemetry.Counter
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
	return p
}

// SetVecTable attaches the scatter-gather call table: entry id handles
// zero-copy calls, those whose VecCall carries segments.  The id
// space is independent of the plain table (a slot's segment count picks
// the table).  Attach before Start.
func (p *CallPool) SetVecTable(vt []PoolVecFunc) { p.vtable = vt }

// SetTelemetry attaches the fabric's counters from the registry: the
// calls requesters ran inline and the kicks that followed them, and the
// scatter-gather calls refused at dispatch.  A nil registry detaches.
// Attach before Start.
func (p *CallPool) SetTelemetry(reg *telemetry.Registry) {
	p.kickCtr = reg.Counter(telemetry.MetricResponderKicks)
	p.inlineCtr = reg.Counter(telemetry.MetricHotCallInline)
	p.rejected = reg.Counter(telemetry.MetricHotCallRejected)
}

// Requester binds the next free shard to the calling goroutine and
// returns its handle.  A Requester must be used from one goroutine at a
// time; the pool supports at most Shards of them.
func (p *CallPool) Requester() *Requester {
	idx := int(p.nextShard.Add(1)) - 1
	if idx >= len(p.shards) {
		panic("core: CallPool requesters exhausted (raise PoolOptions.Shards)")
	}
	r := &Requester{pool: p, shard: p.shards[idx], idx: idx, spin: p.spinMax, gap: 4 * wakeSeed, wake: wakeSeed,
		batches: make([]PoolBatch, len(p.shards[idx].slots))}
	for i := range r.batches {
		r.batches[i].req = r
	}
	return r
}

// Stop shuts the fabric down: responders exit after their current call,
// sleeping responders are woken, and subsequent or in-flight
// submissions fail with ErrStopped.
func (p *CallPool) Stop() {
	p.stopped.Store(true)
	p.wake.Broadcast()
	p.wg.Wait()
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
	// the inline runs so far, when the latest sampled one ended, and the
	// moving averages of the gap between such runs and of what a kick
	// cost this requester (see help).
	spin       int
	waits      uint
	parked     bool
	inlines    uint
	lastInline time.Duration // since epoch
	gap, wake  time.Duration

	// segs is the descriptor scratch help's inline runs execute from
	// (see execRun): the requester's own, like a responder's.
	segs [MaxSegs]Segment

	// batches holds the SubmitV handles, one per ring position: a window
	// starting at position p owns batches[p&mask] until the next window
	// starting there, which cannot post before p's call is collected.
	batches []PoolBatch
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

// gapSample is how many inline runs share one read of the wake policy's
// clock: the read costs a parked call a tenth of its time, and the
// average of four gaps says what four single gaps would.
const gapSample = 4

// epoch is the zero of the wake policy's clock: time.Since reads the
// monotonic clock alone, half of what time.Now costs an inline call.
var epoch = time.Now()

// await is the fabric's one completion wait: it polls s until the
// responder's done store and collects the call — the slot handed back to
// the ring — or returns ErrStopped.  The result stays in s.ret until this
// requester posts the slot again; callers that want it read it there, so
// WaitAll(nil) never pulls the responder-written line.
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
func (r *Requester) await(s *poolSlot) error {
	p := r.pool
	if r.parked && r.help(s) && p.stopped.Load() {
		// In flight across Stop, like a call a responder holds.
		return ErrStopped
	}
	i, budget := 0, 0
	for ; s.state.Load() != slotDone; i++ {
		if p.stopped.Load() {
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
// The wake is decided afterwards, off the calls' path, at every
// gapSample-th run: when the moving average of the gaps between inline
// runs falls below what a kick has cost this requester, calls are
// arriving faster than a wake costs and are worth a responder.  A paced
// open loop never kicks; a closed loop does after about twenty calls
// (DESIGN.md section 9).
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
			p.execRun(sh, r.idx, &r.segs, t, run)
			p.inlineCtr.Add(uint64(run))
			ran = true
		}
	}
	if !ran {
		return false
	}
	if r.inlines++; r.inlines%gapSample != 0 {
		return true
	}
	// One sample is the mean gap of the last gapSample runs, and counts
	// for at most four wakes: the first calls after an idle hour say
	// "idle until now" and no more.
	now := time.Since(epoch)
	r.gap += (min((now-r.lastInline)/gapSample, 4*r.wake) - r.gap) / 4
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

// Next reports the ring slot the requester's next post takes and whether
// it is free: idle, so the call posted there last has been collected.  The
// ring is the requester's window: a port keeps per-call buffers indexed by
// this slot, and answers a slot that is not free with ErrWindowFull
// instead of posting into a wait.
func (r *Requester) Next() (slot int, free bool) {
	sh := r.shard
	i := sh.head & sh.mask
	return int(i), sh.slots[i].state.Load() == slotIdle
}

// post plants one call in the requester's ring, spinning through the
// attempt budget when the window is full.  c.Segs is the call's
// scatter-gather list, at most MaxSegs long (ErrTooManySegments beyond:
// the slot holds no more): its descriptor block is written on its own
// requester-owned line before the slotPosted release store that publishes
// slab bytes and descriptors together.  Without segments that line stays
// untouched, and the cleared count — on the line already being written —
// keeps a reused slot from replaying a prior call's descriptors.  On
// success the slot pointer is returned for the completion wait.
func (r *Requester) post(c *VecCall) (*poolSlot, error) {
	if len(c.Segs) > MaxSegs {
		return nil, ErrTooManySegments
	}
	p := r.pool
	sh := r.shard
	for attempt := 0; attempt < p.opts.Timeout; attempt++ {
		if p.stopped.Load() {
			return nil, ErrStopped
		}
		s := &sh.slots[sh.head&sh.mask]
		if s.state.Load() == slotIdle {
			s.id = c.ID
			s.data = c.Data
			s.nseg = uint32(len(c.Segs))
			if len(c.Segs) != 0 { // an empty copy is still a call to memmove
				copy(s.segs[:], c.Segs)
			}
			s.state.Store(posted(sh.head))
			sh.head++
			// No signal: a parked responder makes the call this
			// requester's own to run when it waits (see help).
			r.parked = p.sleepers.Load() != 0
			return s, nil
		}
		// Window full: every slot in the ring holds an in-flight or
		// un-reaped call.  Yield so responders (and, on a single
		// hardware thread, the goroutine that must reap) can run.
		pause()
	}
	return nil, ErrTimeout
}

// VecCall is one call into the fabric, the paper's call_ID and data word
// plus what the fabric adds to them.
type VecCall struct {
	ID   CallID
	Data uint64
	// Segs is the call's scatter-gather list, dispatched to the vec table
	// (nil for a plain uint64 call).
	Segs []Segment
}

// Call executes call-table entry id with data through the fabric and
// waits for the result: CallV of a plain call.
func (r *Requester) Call(id CallID, data uint64) (uint64, error) {
	return r.CallV(VecCall{ID: id, Data: data})
}

// CallV executes one call and waits for the result.  It returns
// ErrTimeout when the requester's window stayed full for the attempt
// budget (fall back to a regular SDK call, as in the paper's starvation
// mitigation; see CallOrFallback) and ErrStopped after Stop.  A call with
// segments runs the vec-table handler, which reads and writes the
// referenced slab windows in place, with no per-byte copy on either side.
// The path performs no allocation.
func (r *Requester) CallV(c VecCall) (uint64, error) {
	s, err := r.post(&c)
	if err != nil {
		return 0, err
	}
	if err := r.await(s); err != nil {
		return 0, err
	}
	return s.ret, nil
}

// CallOrFallback is CallV with the paper's starvation mitigation: a
// submission timeout degrades to the fallback path instead of failing.
func (r *Requester) CallOrFallback(c VecCall, fallback func() (uint64, error)) (uint64, error) {
	ret, err := r.CallV(c)
	if err == ErrTimeout {
		return fallback()
	}
	return ret, err
}

// SubmitV posts a window of calls without waiting; an asynchronous single
// call is a window of one.  Every call is published with its own slot
// release store, and the posted run is claimed with a single tail CAS —
// by a responder (scale.go), or, when the responders are parked, by
// WaitAll: a window posted while they sleep runs when its requester
// waits, not in the background.  Up to SlotsPerShard calls may be in
// flight per requester; beyond that a post spins on the window and
// eventually fails with ErrTimeout.  On ErrTimeout or ErrStopped
// mid-window the batch returned covers the calls already posted (nil
// only when nothing was posted); the caller must still WaitAll it.
func (r *Requester) SubmitV(calls []VecCall) (*PoolBatch, error) {
	start, n := r.shard.head, 0
	var err error
	for ; n < len(calls); n++ {
		if _, err = r.post(&calls[n]); err != nil {
			break
		}
	}
	if n == 0 {
		return nil, err
	}
	b := &r.batches[start&r.shard.mask]
	b.start, b.n = start, n
	return b, err
}

// PoolBatch is the handle to one SubmitV window, the requester's own for
// the window's ring position, so the SubmitV/WaitAll path allocates
// nothing.  It stays valid, Len included, until the requester posts a
// window starting at that position again.  Calls complete in submission
// order per requester (the ring is FIFO), so collecting the oldest batch
// first keeps the window moving.
type PoolBatch struct {
	req   *Requester
	start uint64
	n     int
}

// Len returns how many calls the batch posted (smaller than the request
// only after a mid-window timeout or stop).
func (b *PoolBatch) Len() int { return b.n }

// WaitAll blocks until every call in the batch completes (one await per
// call, in submission order), copying results into rets (when non-nil).
// With the responders parked it first runs the posted calls up to the
// batch's last itself as one claimed run (see help), and the waits collect
// it.  On ErrStopped the unreaped remainder of the window is abandoned
// with the pool.
func (b *PoolBatch) WaitAll(rets []uint64) error {
	r := b.req
	sh := r.shard
	var err error
	if r.parked && r.help(&sh.slots[(b.start+uint64(b.n-1))&sh.mask]) && r.pool.stopped.Load() {
		err = ErrStopped
	}
	for j := 0; j < b.n && err == nil; j++ {
		s := &sh.slots[(b.start+uint64(j))&sh.mask]
		if err = r.await(s); err == nil && j < len(rets) {
			rets[j] = s.ret
		}
	}
	return err
}
