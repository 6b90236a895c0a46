package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotcalls/internal/flight"
)

// The tests below pin the completion wait (Requester.await): exactly-once
// results when requesters outnumber Ps, the budget's adaptation, and Stop
// landing inside the spin phase or inside a run the requester executes
// itself.  None of them asserts on elapsed time, and all of them hold on
// one P, where the spin phase is disabled.  parked_test.go pins what the
// wait does when it finds the responders parked.

// TestPoolWaitOversubscribedExactlyOnce drives four requesters per P
// against a single responder, synchronously and through a 16-deep
// window, and checks every result and the per-requester execution
// count: a wait that returned early, late or for the wrong slot shows as
// a wrong value, a double or lost execution as a wrong count.
func TestPoolWaitOversubscribedExactlyOnce(t *testing.T) {
	const perPhase, window = 10000, 16
	n := 4 * runtime.GOMAXPROCS(0)
	execs := make([]atomic.Uint64, n)
	mix := func(requester int, d uint64) uint64 { return d*2654435761 + uint64(requester) }
	opts := testPool(n, 1)
	opts.SlotsPerShard = window
	p := NewCallPool([]PoolFunc{func(requester int, d uint64) uint64 {
		execs[requester].Add(1)
		return mix(requester, d)
	}}, opts)
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := p.Requester()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := uint64(0); d < perPhase; d++ {
				if ret, err := r.Call(0, d); err != nil || ret != mix(r.Index(), d) {
					t.Errorf("requester %d: Call(%d) = (%d, %v)", r.Index(), d, ret, err)
					return
				}
			}
			var pending [window]*PoolBatch
			for d := uint64(perPhase); d < 2*perPhase; d += window {
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
			}
		}()
	}
	wg.Wait()
	for i := range execs {
		if got := execs[i].Load(); got != 2*perPhase {
			t.Errorf("requester %d: %d executions for %d calls", i, got, 2*perPhase)
		}
	}
}

// gatedPool is a ring-enabled pool with one responder whose entry 1 (in
// both call tables) reports on entered and then holds the responder
// until gate yields a value or is closed; entry 0 echoes.  parks says
// whether the idle responder ever goes to sleep.
func gatedPool(shards int, parks bool) (p *CallPool, entered, gate chan struct{}) {
	entered, gate = make(chan struct{}, 1), make(chan struct{})
	hold := func() { entered <- struct{}{}; <-gate }
	opts := testPool(shards, 1)
	opts.RingSlabs, opts.RingSlabBytes = 4, 256
	p = NewCallPool([]PoolFunc{
		func(_ int, d uint64) uint64 { return d },
		func(_ int, d uint64) uint64 { hold(); return d },
	}, opts)
	if !parks {
		p.policy.yield = 1 << 40
	}
	p.SetVecTable([]PoolVecFunc{
		func(_ int, d uint64, _ []Segment) uint64 { return d },
		func(_ int, d uint64, _ []Segment) uint64 { hold(); return d },
	})
	return p, entered, gate
}

// TestPoolWaitBudgetAdapts: waits on a handler that outlasts the spin
// phase drive the budget to zero, and the probe brings it back.  The way
// down runs on one P with the budget armed by hand: the goroutine that
// releases the held handler is only created before the wait and cannot
// run until the waiter's first Gosched, which is the end of the spin
// phase, so every held wait exhausts its budget and the floor is nine
// halvings away (a preemption inside a spin phase costs extra rounds, not
// the outcome).  For the way back the cap is made inexhaustible, so the
// one probe among the next spinProbe waits completes inside its spin
// phase however the scheduler places the responder, and the restore is
// exact rather than likely; that half needs a second P to finish at all.
func TestPoolWaitBudgetAdapts(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	p, entered, gate := gatedPool(1, false)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	// One P: the responder cannot run while the requester spins.
	if _, err := r.Call(0, 1); err != nil || p.spinMax != 0 || r.spin != 0 {
		t.Fatalf("single-P Call: err=%v cap=%d spin=%d, want no spin phase", err, p.spinMax, r.spin)
	}
	p.spinMax, r.spin = spinBudget, spinBudget
	rounds := 0
	for ; r.spin > 0 && rounds < 200; rounds++ {
		pd, err := submitOne(r, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		go func() { gate <- struct{}{} }()
		if _, err := waitOne(pd); err != nil {
			t.Fatal(err)
		}
	}
	if r.spin != 0 {
		t.Fatalf("budget %d after %d waits on a held handler, want 0", r.spin, rounds)
	}
	t.Logf("budget reached zero after %d held waits", rounds)

	runtime.GOMAXPROCS(procs)
	if procs == 1 {
		return
	}
	p.spinMax = 1 << 62
	for from, calls := r.waits, 0; r.waits-from < spinProbe; calls++ {
		if calls == 1<<20 {
			t.Fatalf("%d fast calls made only %d waits", calls, r.waits-from)
		}
		if ret, err := r.Call(0, uint64(calls)); err != nil || ret != uint64(calls) {
			t.Fatalf("Call = (%d, %v)", ret, err)
		}
	}
	if r.spin != p.spinMax {
		t.Fatalf("budget %d after one probe period of fast calls, want the cap restored", r.spin)
	}
}

// TestPoolStopDuringWait: Stop landing while a requester waits on a call
// held in its handler returns ErrStopped from every waiting entry point
// and closes the call's flight record — whether a responder holds the
// call (with more than one P the budget is made inexhaustible first, so
// the wait is still in its spin phase when Stop lands) or, the responder
// being parked, the requester is running it inline and only learns of
// the stop when its own handler returns.
func TestPoolStopDuringWait(t *testing.T) {
	seg := []Segment{{Slab: 0, Off: 0, Len: 8}}
	for _, tc := range []struct {
		name string
		wait func(r *Requester) error
	}{
		{"Call", func(r *Requester) error { _, err := r.Call(1, 0); return err }},
		{"CallV", func(r *Requester) error { _, err := r.CallV(VecCall{ID: 1, Segs: seg}); return err }},
		{"Wait", func(r *Requester) error {
			pd, err := submitOne(r, 1, 0)
			if err != nil {
				return err
			}
			_, err = waitOne(pd)
			return err
		}},
		{"WaitAll", func(r *Requester) error {
			b, err := r.SubmitV([]VecCall{{ID: 1, Segs: seg}, {ID: 0}})
			if err != nil {
				return err
			}
			return b.WaitAll(nil)
		}},
	} {
		for _, inline := range []bool{false, true} {
			name := tc.name
			if inline {
				name += "_inline"
			}
			t.Run(name, func(t *testing.T) {
				p, entered, gate := gatedPool(1, inline)
				rec := flight.New(flight.Options{SampleEvery: 1})
				p.SetFlight(rec)
				p.Start()
				r := p.Requester()
				if inline {
					waitParked(t, p)
				} else if p.spinMax > 0 {
					p.spinMax, r.spin = 1<<62, 1<<62
				}
				result := make(chan error, 1)
				go func() { result <- tc.wait(r) }()
				<-entered
				stopped := make(chan struct{})
				go func() { p.Stop(); close(stopped) }()
				if inline {
					// The handler is on the requester's goroutine, which
					// cannot see the stop before the handler returns.
					waitFor(t, 5*time.Second, p.Stopped, "Stop to land")
					close(gate)
				}
				if err := <-result; !errors.Is(err, ErrStopped) {
					t.Errorf("%s across Stop: %v, want ErrStopped", name, err)
				}
				if !inline {
					close(gate) // let the held responder see the stop and exit
				}
				<-stopped
				closed := false
				for _, v := range rec.Records(64) {
					closed = closed || v.Stopped
				}
				if !closed {
					t.Errorf("%s across Stop left no flight record closed as stopped", name)
				}
			})
		}
	}
}
