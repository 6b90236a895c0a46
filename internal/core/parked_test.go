package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests below pin the parked-responder protocol (Requester.help): a
// requester that posts while a responder is parked sends no signal, runs
// its own calls when it waits, and decides afterwards whether a
// wake is worth its price.  They assert on execution counts, claim
// order and the fabric's own counts, never on elapsed time.

// parkedCounters returns readers for the calls responders ran and the
// kicks sent.  A requester's inline runs (Requester.help calls that ran
// anything) are its own r.inlines, read from its goroutine.
func parkedCounters(p *CallPool) (executes, kicks func() uint64) {
	return func() uint64 { _, execs := p.Stats(); return execs }, p.kicks.Load
}

// waitParked waits until p's one responder is parked for good: it has
// published itself as a sleeper and has had a millisecond — it needs a
// fraction of a microsecond — to look for work once more and block, so a
// post made after this finds it asleep and leaves it asleep.
func waitParked(t *testing.T, p *CallPool) {
	t.Helper()
	for settled := false; !settled; settled = parked(p) {
		waitFor(t, 5*time.Second, func() bool { return parked(p) }, "the responder to park")
		time.Sleep(time.Millisecond)
	}
}

// parked reports whether p's one responder has announced the wait.
func parked(p *CallPool) bool { return p.SleepingResponders() == 1 }

// TestPoolParkedHelpExactlyOnce races helpers against responders for the
// same runs: every requester mixes Call, one-call SubmitV windows and
// whole SubmitV windows against two responders on a short ladder, so
// posts keep finding one parked, while a goroutine storms wake.Broadcast,
// so parked responders keep coming back to find the work the requester
// is about to claim.  Each call must execute exactly once and each result
// come back in order, whoever won the tail CAS.
func TestPoolParkedHelpExactlyOnce(t *testing.T) {
	const rounds, window = 300, 16
	const perRound = 1 + 2*window
	n := 2 * runtime.GOMAXPROCS(0)
	counts := make([][]atomic.Uint32, n)
	for i := range counts {
		counts[i] = make([]atomic.Uint32, rounds*perRound)
	}
	mix := func(requester int, d uint64) uint64 { return d*2654435761 + uint64(requester) }
	opts := testPool(n, 2)
	opts.SlotsPerShard = window
	p := NewCallPool([]PoolFunc{func(requester int, d uint64) uint64 {
		counts[requester][d].Add(1)
		return mix(requester, d)
	}}, opts)
	// Two responders throughout, on a ladder of six empty passes: the
	// default one is too long for a requester to find a responder parked
	// between its own calls (a handful of inline runs in 40 000, against
	// hundreds on this one).
	p.policy = responderPolicy{spin: 2, yield: 4, floor: 2}
	executes, _ := parkedCounters(p)
	p.Start()
	defer p.Stop()

	done := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.wake.Broadcast()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	reqs := make([]*Requester, n)
	for i := range reqs {
		r := p.Requester()
		reqs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pending [window]*PoolBatch
			var calls [window]VecCall
			var rets [window]uint64
			for round := 0; round < rounds; round++ {
				d := uint64(round * perRound)
				if ret, err := r.Call(0, d); err != nil || ret != mix(r.Index(), d) {
					t.Errorf("requester %d: Call(%d) = (%d, %v)", r.Index(), d, ret, err)
					return
				}
				d++
				for j := range pending {
					var err error
					if pending[j], err = submitOne(r, 0, d+uint64(j)); err != nil {
						t.Errorf("requester %d: SubmitV(%d): %v", r.Index(), d+uint64(j), err)
						return
					}
				}
				for j, pd := range pending {
					if ret, err := waitOne(pd); err != nil || ret != mix(r.Index(), d+uint64(j)) {
						t.Errorf("requester %d: WaitAll(%d) = (%d, %v)", r.Index(), d+uint64(j), ret, err)
						return
					}
				}
				d += window
				for j := range calls {
					calls[j] = VecCall{ID: 0, Data: d + uint64(j)}
				}
				b, err := r.SubmitV(calls[:])
				if err != nil {
					t.Errorf("requester %d: SubmitV(%d): %v", r.Index(), d, err)
					return
				}
				if err := b.WaitAll(rets[:]); err != nil {
					t.Errorf("requester %d: WaitAll(%d): %v", r.Index(), d, err)
					return
				}
				for j, ret := range rets {
					if ret != mix(r.Index(), d+uint64(j)) {
						t.Errorf("requester %d: WaitAll(%d)[%d] = %d", r.Index(), d, j, ret)
						return
					}
				}
				// Let the ladder run out now and then.
				if round%8 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	storm.Wait()
	for i := range counts {
		for d := range counts[i] {
			if got := counts[i][d].Load(); got != 1 {
				t.Errorf("requester %d call %d executed %d times", i, d, got)
			}
		}
	}
	var inline uint
	for _, r := range reqs {
		inline += r.inlines
	}
	t.Logf("%d inline runs, %d calls by responders", inline, executes())
}

// TestPoolParkedWindowHelped: a 16-deep async window posted to a parked
// responder, one call per batch, is run by waiting alone.  Waiting on the
// newest batch claims the whole window as one run and executes it in ring
// order without waking anyone; the older batches then find their calls
// done.
func TestPoolParkedWindowHelped(t *testing.T) {
	const window = 16
	var mu sync.Mutex
	var order []uint64
	opts := testPool(1, 1)
	opts.SlotsPerShard = window
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 {
		mu.Lock()
		order = append(order, d)
		mu.Unlock()
		return d + 100
	}}, opts)
	executes, kicks := parkedCounters(p)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	waitParked(t, p)
	var pending [window]*PoolBatch
	for j := range pending {
		var err error
		if pending[j], err = submitOne(r, 0, uint64(j)); err != nil {
			t.Fatal(err)
		}
	}
	if ret, err := waitOne(pending[window-1]); err != nil || ret != 100+window-1 {
		t.Fatalf("WaitAll of the newest call = (%d, %v), want it run by the wait", ret, err)
	}
	for j, pd := range pending[:window-1] {
		if ret, err := waitOne(pd); err != nil || ret != 100+uint64(j) {
			t.Fatalf("WaitAll(%d) = (%d, %v)", j, ret, err)
		}
	}
	if len(order) != window {
		t.Fatalf("%d executions for a window of %d", len(order), window)
	}
	for j, d := range order {
		if d != uint64(j) {
			t.Fatalf("execution order %v, want ring order", order)
		}
	}
	if r.inlines != 1 || executes() != 0 || kicks() != 0 || !parked(p) {
		t.Errorf("inline runs=%d executes=%d kicks=%d parked=%v, want the whole window one inline run and the responder left asleep",
			r.inlines, executes(), kicks(), parked(p))
	}
}

// TestPoolWakePolicy: the wake is a priced decision.  Calls spaced wider
// than a wake costs are all run inline and never signal; back-to-back
// calls after idle kick the responder within a bounded number of calls,
// and from then on the closed loop is cross-thread again — the kicked
// responder restarts its ladder instead of finding no work and parking.
func TestPoolWakePolicy(t *testing.T) {
	// A ladder thousands of yields long: once awake the responder outlasts
	// the gap between two back-to-back calls however slow the build (the
	// race detector stretches a call more than a yield), so what the
	// closed-loop half sees is the protocol and not the host.
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.policy.yield = 1 << 14
	executes, kicks := parkedCounters(p)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	// Every call here is a single Call, so each inline run is one call.
	inline := func() uint64 { return uint64(r.inlines) }
	var calls uint64
	call := func(d uint64) { // no t.Helper: it would be most of a back-to-back call
		calls++
		if ret, err := r.Call(0, d); err != nil || ret != d {
			t.Fatalf("Call(%d) = (%d, %v)", d, ret, err)
		}
	}

	// Paced: every gap is at least 50 us, five times the seeded wake cost,
	// so the moving average cannot fall below it whatever the host does.
	const paced = 200
	waitParked(t, p)
	for d := uint64(0); d < paced; d++ {
		for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
		}
		call(d)
	}
	if inline() != paced || executes() != 0 || kicks() != 0 || !parked(p) {
		t.Fatalf("paced calls: inline=%d executes=%d kicks=%d parked=%v, want all %d inline and no signal",
			inline(), executes(), kicks(), parked(p), paced)
	}

	// Back to back: the kick comes within a bounded number of calls.
	const bound = 64
	n := uint64(0)
	for ; kicks() == 0; n++ {
		if n == bound {
			t.Fatalf("no kick after %d back-to-back calls (gap average %v, wake cost %v)", n, r.gap, r.wake)
		}
		call(n)
	}
	t.Logf("kicked after %d back-to-back calls", n)
	// The responder's thread takes its time; calls stay inline meanwhile.
	for d := uint64(0); parked(p); d++ {
		if d == 1<<24 {
			t.Fatal("the kicked responder never left the wait")
		}
		call(d)
	}
	// Awake, it stays the closed loop's responder: calls go cross-thread
	// and further kicks are as rare as the host taking the CPU away for a
	// whole ladder.  A kicked responder that looked for work, found the
	// requester had done it and parked again would be kicked every few
	// calls for ever, and run none of them.
	const loop = 20000
	counted := func() bool { return inline()+executes() == calls } // the responder publishes after the done store
	waitFor(t, 5*time.Second, counted, "the responder's counts")
	inline0, executes0, kicks0 := inline(), executes(), kicks()
	for d := uint64(0); d < loop; d++ {
		call(d)
	}
	waitFor(t, 5*time.Second, counted, "the responder's counts")
	ran, again := executes()-executes0, kicks()-kicks0
	t.Logf("closed loop after the kick: %d of %d calls cross-thread, %d inline, %d more kicks", ran, loop, inline()-inline0, again)
	if ran == 0 || again > loop/100 {
		t.Errorf("closed loop after the kick: %d calls cross-thread and %d more kicks in %d calls, want the responder serving and a kick a rarity", ran, again, loop)
	}

	// The kick itself, with nothing posted, ends the wait.
	waitParked(t, p)
	if !p.kick() {
		t.Fatal("a kick was still outstanding with the responder parked")
	}
	waitFor(t, 5*time.Second, func() bool { return !parked(p) }, "the kicked responder to leave the wait")
}
