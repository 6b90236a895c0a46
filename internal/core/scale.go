package core

// This file is the fabric's responder side: a pool of polling goroutines
// that claim work across every shard, sized adaptively the way "SGX
// Switchless Calls Made Configless" argues the worker knob should be —
// from observed occupancy, not static configuration.  The paper's own
// Section 4.2 frames the trade: every polling core is burned capacity,
// so the pool grows a responder only while slot inspections keep finding
// work, and idles surplus responders down the spin→yield→sleep ladder
// until one sleeping responder remains.

// The responder side's tuning, in scan passes.  No caller has needed
// other values: a pool grows from minResponders toward
// PoolOptions.MaxResponders, decides once every controlWindow passes of
// the primary responder, and an idle responder re-scans hot for
// spinPasses empty passes, yields for yieldPasses more and then parks —
// Section 4.2's spin→yield→sleep idle story.
const (
	minResponders = 1
	controlWindow = 256
	spinPasses    = 16
	yieldPasses   = 64
)

// responderPolicy is the idle ladder a pool's responders climb and the
// floor its controller never retires below.  Every CallPool runs
// defaultPolicy except the HotCall face (hotcalls.go), whose responder
// never parks.
type responderPolicy struct {
	spin, yield int   // empty passes hot, then yielding, before parking
	floor       int32 // responders started, and never retired below
}

var defaultPolicy = responderPolicy{spin: spinPasses, yield: yieldPasses, floor: minResponders}

// Start launches the responder pool at its floor.  The primary
// responder (index 0) doubles as the adaptive controller; it is never
// retired, so the pool always has a responder to wake.
func (p *CallPool) Start() {
	p.target.Store(p.policy.floor)
	for i := 0; i < int(p.policy.floor); i++ {
		p.spawn(i)
	}
}

// spawn launches one responder goroutine.  Called from Start and from
// the controller (primary responder) only, so spawns never race.
func (p *CallPool) spawn(idx int) {
	p.enter()
	go p.runResponder(idx)
}

// enter counts a responder in before its loop starts; runResponder counts
// it out.
func (p *CallPool) enter() {
	p.wg.Add(1)
	p.liveGauge.Set(int64(p.live.Add(1)))
}

// Responders returns the number of live responder goroutines.
func (p *CallPool) Responders() int { return int(p.live.Load()) }

// SleepingResponders returns how many responders are parked on the wake
// condition variable.
func (p *CallPool) SleepingResponders() int { return int(p.sleepers.Load()) }

// Stats returns the pool-wide slot-inspection and execution totals; the
// ratio is the occupancy the adaptive controller steers by.
func (p *CallPool) Stats() (polls, executes uint64) {
	return p.polls.Load(), p.executes.Load()
}

// runResponder is one responder's loop: claim work across all shards
// with a rotating scan start, back off through the spin→yield→sleep
// ladder when passes come up empty, and retire when the adaptive target
// drops below this responder's index.
//
// An empty pass writes nothing the pool shares: the scan origin and the
// control window are wrapping counters, and poll and execute counts
// gather in locals that flush publishes — after a pass that executed
// work, at every control window before anything reads the totals, and
// before parking or exiting.
func (p *CallPool) runResponder(idx int) {
	defer p.wg.Done()
	defer func() { p.liveGauge.Set(int64(p.live.Add(-1))) }()

	spin, yield := p.policy.spin, p.policy.yield
	var segs [MaxSegs]Segment // this responder's private descriptor copies (execRun)
	empty := 0
	start := idx % len(p.shards) // stagger scan starts across responders
	window := controlWindow
	var polls, execs uint64 // not yet published
	flush := func() {
		p.polls.Add(polls)
		p.pollCtr.Add(polls)
		if execs > 0 {
			p.executes.Add(execs)
			p.executeCtr.Add(execs)
		}
		polls, execs = 0, 0
	}
	defer flush()

	for !p.stopped.Load() && (idx == 0 || int32(idx) < p.target.Load()) {
		passPolls, passExecs := p.scanPass(idx, start, &segs)
		if start++; start == len(p.shards) {
			start = 0
		}
		polls += passPolls
		execs += passExecs

		if window--; window == 0 {
			window = controlWindow
			flush()
			if idx == 0 {
				p.control()
			}
		}

		if passExecs > 0 {
			flush()
			empty = 0
			continue
		}
		empty++
		switch {
		case empty <= spin:
			// Hot re-scan: the cheapest way to catch a call posted
			// microseconds after the last look.
		case empty <= spin+yield:
			pause()
		default:
			flush()
			// The primary reaches the sleep threshold with surplus
			// responders still live when idleness set in mid-window: it
			// must not park yet, or no controller pass would ever shed
			// them and the pool would idle at N sleepers instead of
			// one.  Force a decision now and hold the yield rung until
			// the pool has drained to the floor.
			if idx == 0 && (p.target.Load() > p.policy.floor || p.live.Load() > p.target.Load()) {
				p.control()
				empty = spin
				pause()
				continue
			}
			// Sleep until a requester kicks, Stop, or retirement (no post
			// signals; any wake re-checks for work).  The sleeper count is published before the condition check,
			// so a requester that misses it in post() is one whose work
			// the check below already sees (both are seq-cst atomics), and
			// one that sees it runs the call itself (Requester.help).  A
			// kick carries no work — its sender has run its own calls — so
			// it is a reason of its own to leave the wait.
			p.sleepers.Add(1)
			p.wake.Wait(func() bool {
				if p.stopped.Load() || (idx > 0 && int32(idx) >= p.target.Load()) {
					return true
				}
				return p.kicked.Swap(false) || p.hasAnyWork()
			})
			p.sleepers.Add(-1)
			empty = 0
		}
	}
}

// kick wakes one parked responder for no call in particular (see
// Requester.help).  One kick is outstanding at a time; it reports
// whether this one was sent.
func (p *CallPool) kick() bool {
	if !p.kicked.CompareAndSwap(false, true) {
		return false
	}
	p.kickCtr.Inc()
	p.wake.Signal()
	return true
}

// maxClaimBatch bounds how many posted calls one tail CAS may claim.
// Large enough to amortize the claim across a SubmitV window, small
// enough that two responders sharing a hot shard still interleave.
const maxClaimBatch = 16

// scanPass visits every shard once, starting at shard start — rotated by
// the caller so no shard holds permanent first-served priority — and
// drains up to a ring's worth of posted calls per shard.  idx identifies
// the responder for flight-record claim stamps; segs is its descriptor
// scratch (see execRun).  It returns the number of slot inspections and
// executed calls.
//
// Claiming is batched: the responder counts the posted run at the claim
// cursor and takes the whole run with one tail CAS (bounded by
// maxClaimBatch), so a vectored submit window costs one synchronized
// claim instead of one per call — the responder-side half of SubmitV's
// amortization.  A run of one degenerates to exactly the old
// slot-at-a-time protocol.
func (p *CallPool) scanPass(idx, start int, segs *[MaxSegs]Segment) (polls, execs uint64) {
	shardIdx := start
	for range p.shards {
		sh := p.shards[shardIdx]
		// Bound the per-visit drain by the ring depth: a requester that
		// posts as fast as we execute must not pin the responder to one
		// shard forever.
		for drained := 0; drained < len(sh.slots); {
			t := sh.tail.Load()
			limit := min(len(sh.slots)-drained, maxClaimBatch)
			run := sh.postedRun(t, limit)
			if run < limit {
				polls++ // the inspection that ended the run
			}
			if run == 0 {
				break
			}
			polls += uint64(run)
			if !sh.tail.CompareAndSwap(t, t+uint64(run)) {
				continue // another claimant got here first; re-look
			}
			p.execRun(sh, shardIdx, idx, segs, t, run)
			execs += uint64(run)
			drained += run
		}
		if shardIdx++; shardIdx == len(p.shards) {
			shardIdx = 0
		}
	}
	return polls, execs
}

// execRun executes calls t..t+run-1 of sh, which a tail CAS from t to
// t+run made exclusively the caller's — a responder in scanPass, or the
// shard's own requester in help: execute each, publish its result on the
// responder-written line, then signal completion with the one state
// store.  who names the claimant in the flight record (a responder
// index, or flight.InlineResponder).  Sampled calls carry a record in
// s.fr (published by the slotPosted store); three clock reads bracket
// the handler so its timeline separates claim latency from service time.
//
// A scatter-gather call's descriptors sit in the slot, which the
// requester can still write.  They are copied once into segs, the
// claimant's own scratch, and the copy is both what holds validates and
// what the handler receives: a descriptor rewritten after the check
// never reaches the handler.
func (p *CallPool) execRun(sh *shard, shardIdx, who int, segs *[MaxSegs]Segment, t uint64, run int) {
	f := p.flight
	for j := 0; j < run; j++ {
		s := &sh.slots[(t+uint64(j))&sh.mask]
		id, data := s.id, s.data
		fr := s.fr
		if fr != nil && f != nil {
			now := f.Now()
			fr.Claim(who, now)
			fr.ExecStart(now)
		}
		var ret uint64
		if nseg := s.nseg; nseg > 0 {
			// Scatter-gather call: dispatch through the vec table with
			// the claimant's copy of the descriptor block (the handler
			// must not retain the slice).  A count the block cannot hold
			// or a descriptor outside the posting requester's ring gets
			// the sentinel, like a corrupted call_ID, and is counted.
			if p.vtable == nil || int(id) < 0 || int(id) >= len(p.vtable) || p.vtable[id] == nil {
				ret = ^uint64(0)
			} else if nseg > MaxSegs || !p.Ring(shardIdx).holds(segs[:copy(segs[:], s.segs[:nseg])]) {
				ret = ^uint64(0)
				p.rejected.Inc()
			} else {
				ret = p.vtable[id](shardIdx, data, segs[:nseg])
			}
		} else if int(id) < 0 || int(id) >= len(p.table) {
			ret = ^uint64(0) // corrupted call_ID: sentinel, as in hotcalls.go
		} else {
			ret = p.table[id](shardIdx, data)
		}
		if fr != nil && f != nil {
			fr.ExecEnd(f.Now())
		}
		s.ret = ret
		s.state.Store(slotDone)
	}
}

// hasAnyWork reports whether any shard has a posted, unclaimed call.
func (p *CallPool) hasAnyWork() bool {
	for _, sh := range p.shards {
		if sh.postedRun(sh.tail.Load(), 1) == 1 {
			return true
		}
	}
	return false
}

// The adaptive controller's watermarks: occupancy is executes/polls over
// the last control window — the fraction of slot inspections that found
// work — and the pool grows at or above the upper one and shrinks at or
// below the lower.
const (
	scaleUpOccupancy   = 0.5
	scaleDownOccupancy = 0.05
)

// control is the adaptive decision point, run on the primary responder
// every controlWindow passes: compute the pool-wide occupancy over the
// window just finished and grow or shrink the responder count toward
// the watermarks.  Transitions settle one at a time — no new decision
// while a retiring responder is still draining — so live never
// overshoots the bounds.
func (p *CallPool) control() {
	polls := p.polls.Load()
	execs := p.executes.Load()
	dPolls := polls - p.ctrlPolls
	dExecs := execs - p.ctrlExecutes
	p.ctrlPolls, p.ctrlExecutes = polls, execs

	var occ float64
	if dPolls > 0 {
		occ = float64(dExecs) / float64(dPolls)
	}
	p.occGauge.Set(occupancyMilli(dPolls, dExecs))

	target := p.target.Load()
	if p.live.Load() != target {
		return // a previous decision is still taking effect
	}
	min, max := p.policy.floor, int32(p.opts.MaxResponders)
	switch {
	case occ >= scaleUpOccupancy && target < max:
		p.scaleUp(target)
	case occ <= scaleDownOccupancy && target > min:
		p.scaleDown(target)
	}
}

// scaleUp grows the pool by one responder.
func (p *CallPool) scaleUp(target int32) {
	p.target.Store(target + 1)
	p.spawn(int(target))
}

// scaleDown retires the highest-indexed responder: it exits at its next
// pass boundary (or wakes from sleep to exit).
func (p *CallPool) scaleDown(target int32) {
	p.target.Store(target - 1)
	p.wake.Broadcast()
}

// occupancyMilli renders an occupancy fraction as the integer gauge unit
// (thousandths) the telemetry registry exports.
func occupancyMilli(polls, execs uint64) int64 {
	return int64(float64(execs) / float64(max(polls, 1)) * 1000)
}
