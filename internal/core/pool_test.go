package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotcalls/internal/telemetry"
)

// echoTable is the minimal fabric call table: entry 0 echoes its payload.
func echoTable() []PoolFunc {
	return []PoolFunc{
		func(_ int, data uint64) uint64 { return data },
		func(requester int, data uint64) uint64 { return data + uint64(requester) },
	}
}

// testPool returns the options core's tests share: a 16-deep ring, up
// to maxResponders responders, and a submission limit no test reaches by
// accident.
func testPool(shards, maxResponders int) PoolOptions {
	return PoolOptions{Shards: shards, SlotsPerShard: 16, MaxResponders: maxResponders, Timeout: 1 << 20}
}

func TestPoolCallRoundTrip(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(2, 2))
	p.Start()
	defer p.Stop()

	r := p.Requester()
	for i := uint64(0); i < 500; i++ {
		ret, err := r.Call(0, i)
		if err != nil || ret != i {
			t.Fatalf("Call(%d) = (%d, %v)", i, ret, err)
		}
	}
	// Entry 1 sees the requester's shard index.
	ret, err := r.Call(1, 100)
	if err != nil || ret != 100+uint64(r.Index()) {
		t.Fatalf("Call with requester arg = (%d, %v), idx %d", ret, err, r.Index())
	}
}

func TestPoolSubmitWindowPipelines(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.Start()
	defer p.Stop()

	r := p.Requester()
	const window = 16
	pending := make([]*PoolPending, 0, window)
	next := uint64(0)
	collected := uint64(0)
	for collected < 2000 {
		for len(pending) < window {
			pd, err := r.Submit(0, next)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, pd)
			next++
		}
		// Collect in FIFO order — the ring completes oldest-first.
		ret, err := pending[0].Wait()
		if err != nil || ret != collected {
			t.Fatalf("call %d = (%d, %v)", collected, ret, err)
		}
		pending = pending[:copy(pending, pending[1:])]
		collected++
	}
	for _, pd := range pending {
		if _, err := pd.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolCorruptedCallID(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.Start()
	defer p.Stop()
	r := p.Requester()
	ret, err := r.Call(CallID(99), 7)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("out-of-table call = (%#x, %v), want sentinel", ret, err)
	}
}

func TestPoolRequesterExhaustionPanics(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.Requester()
	defer func() {
		if recover() == nil {
			t.Fatal("second Requester on a 1-shard pool did not panic")
		}
	}()
	p.Requester()
}

func TestPoolStop(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(2, 2))
	p.Start()
	r := p.Requester()
	if _, err := r.Call(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if p.Responders() != 0 {
		t.Fatalf("%d responders alive after Stop", p.Responders())
	}
	if _, err := r.Call(0, 2); !errors.Is(err, ErrStopped) {
		t.Fatalf("Call after Stop: %v, want ErrStopped", err)
	}
	if _, err := r.Submit(0, 3); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop: %v, want ErrStopped", err)
	}
	if _, err := r.CallZC(0, 4, []Segment{{}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("CallZC after Stop: %v, want ErrStopped", err)
	}
	if b, err := r.SubmitV([]VecCall{{ID: 0, Data: 5}}); b != nil || !errors.Is(err, ErrStopped) {
		t.Fatalf("SubmitV after Stop: (%v, %v), want no batch and ErrStopped", b, err)
	}
}

func TestPoolSubmitTimeoutWhenSaturated(t *testing.T) {
	// No responders started: the window fills and stays full, so the
	// attempt budget expires — the paper's starvation signal.
	opts := testPool(1, 1)
	opts.SlotsPerShard = 2
	opts.Timeout = 3
	p := NewCallPool(echoTable(), opts)
	r := p.Requester()
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Submit(0, 9); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Submit on full window: %v, want ErrTimeout", err)
	}
	// CallOrFallback degrades to the fallback path on the same signal.
	ret, err := r.CallOrFallback(0, 9, func() (uint64, error) { return 42, nil })
	if err != nil || ret != 42 {
		t.Fatalf("CallOrFallback = (%d, %v), want fallback 42", ret, err)
	}
}

// TestPoolCallZeroAlloc is the zero-allocation contract of the tentpole:
// the synchronous path and the windowed submit/collect path allocate
// nothing in steady state.
func TestPoolCallZeroAlloc(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.SetTelemetry(telemetry.New()) // live counters must stay alloc-free too
	p.Start()
	defer p.Stop()
	r := p.Requester()

	// Warm: first Submit populates the sync.Pool.
	if pd, err := r.Submit(0, 0); err != nil {
		t.Fatal(err)
	} else if _, err := pd.Wait(); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Call(0, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Call allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		pd, err := r.Submit(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pd.Wait(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Submit/Wait allocates %.1f per op, want 0", n)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// poolLoad drives windowed async traffic through r until stop flips —
// the batch submission pattern the fabric is built for, and the only
// load shape that shows the controller real occupancy on a single
// hardware thread (synchronous one-at-a-time calls leave the responder
// scanning empty rings between requester quanta).  The window is a
// whole default ring: on one P the responder climbs its spin rung
// between requester quanta, and only full rings on four shards keep a
// controlWindow's occupancy above the scale-up watermark.
func poolLoad(r *Requester, stop *atomic.Bool) {
	const window = 64
	pending := make([]*PoolPending, 0, window)
	for i := uint64(0); !stop.Load(); {
		for len(pending) < window {
			pd, err := r.Submit(0, i)
			if err != nil {
				return
			}
			pending = append(pending, pd)
			i++
		}
		for _, pd := range pending {
			if _, err := pd.Wait(); err != nil {
				return
			}
		}
		pending = pending[:0]
	}
	for _, pd := range pending {
		pd.Poll()
	}
}

// TestPoolAdaptiveScaleUp drives sustained traffic through every shard
// and requires the controller to grow the responder pool from its floor.
func TestPoolAdaptiveScaleUp(t *testing.T) {
	const shards = 4
	p := NewCallPool(echoTable(), PoolOptions{Shards: shards, MaxResponders: 3, Timeout: 1 << 20})
	p.SetTelemetry(telemetry.New())
	p.Start()
	defer p.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		r := p.Requester()
		wg.Add(1)
		go func() {
			defer wg.Done()
			poolLoad(r, &stop)
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return p.Responders() > 1 },
		"adaptive scale-up under sustained load")
	stop.Store(true)
	wg.Wait()
}

// TestPoolIdleShrink is the idle acceptance test: after load stops, the
// pool must walk back down to exactly one responder, asleep on the wake
// condition — the "conserving resources at idle times" end state.
func TestPoolIdleShrink(t *testing.T) {
	const shards = 4
	p := NewCallPool(echoTable(), PoolOptions{Shards: shards, MaxResponders: 3, Timeout: 1 << 20})
	p.Start()
	defer p.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	reqs := make([]*Requester, shards)
	for s := 0; s < shards; s++ {
		reqs[s] = p.Requester()
		r := reqs[s]
		wg.Add(1)
		go func() {
			defer wg.Done()
			poolLoad(r, &stop)
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return p.Responders() > 1 }, "scale-up before shrink")
	stop.Store(true)
	wg.Wait()

	waitFor(t, 5*time.Second, func() bool {
		return p.Responders() == 1 && p.SleepingResponders() == 1
	}, "idle shrink to one sleeping responder")

	// The parked pool still serves the next burst (shard 0's goroutine
	// has exited, so its requester handle is free to reuse).
	if ret, err := reqs[0].Call(0, 77); err != nil || ret != 77 {
		t.Fatalf("call after idle shrink = (%d, %v)", ret, err)
	}
}

// TestPoolConcurrentChurn is the -race coverage for the fabric:
// concurrent requesters on every shard, the controller scaling the
// responders underneath them, and a Stop racing the traffic.
func TestPoolConcurrentChurn(t *testing.T) {
	shards := runtime.GOMAXPROCS(0) + 2
	opts := testPool(shards, 4)
	opts.Timeout = 64 // let saturation surface as ErrTimeout, not a hang
	p := NewCallPool(echoTable(), opts)
	reg := telemetry.New()
	p.SetTelemetry(reg)
	p.Start()

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		r := p.Requester()
		wg.Add(1)
		go func() {
			defer wg.Done()
			pending := make([]*PoolPending, 0, 8)
			for i := uint64(0); ; i++ {
				pd, err := r.Submit(0, i)
				if errors.Is(err, ErrStopped) {
					break
				}
				if errors.Is(err, ErrTimeout) {
					continue
				}
				pending = append(pending, pd)
				if len(pending) == cap(pending) {
					for _, pd := range pending {
						if _, err := pd.Wait(); errors.Is(err, ErrStopped) {
							break
						}
					}
					pending = pending[:0]
				}
			}
			for _, pd := range pending {
				pd.Poll() // drain whatever completed before Stop
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	wg.Wait()

	// Requesters that outnumber the Ps and find the responders parked run
	// their calls themselves, so traffic is either side's executions.
	polls, execs := p.Stats()
	inline := reg.Counter(telemetry.MetricHotCallInline).Load()
	if polls == 0 || execs+inline == 0 {
		t.Fatalf("no traffic observed: polls=%d execs=%d inline=%d", polls, execs, inline)
	}
}

// TestPoolTelemetryExports checks the fabric's series land in the
// registry: request, poll, execute and inline counts, and the live/max
// responder gauges.
func TestPoolTelemetryExports(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), testPool(1, 2))
	p.SetTelemetry(reg)
	p.Start()
	r := p.Requester()
	for i := uint64(0); i < 200; i++ {
		if _, err := r.Call(0, i); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[telemetry.MetricHotCallRequests] < 200 {
		t.Fatalf("requests counter = %d, want >= 200", snap.Counters[telemetry.MetricHotCallRequests])
	}
	if snap.Counters[telemetry.MetricResponderPolls] == 0 {
		t.Fatal("responder polls counter never moved")
	}
	// Every call was run by a responder or, the responder being parked,
	// inline by the requester.
	if ran := snap.Counters[telemetry.MetricResponderExecutes] + snap.Counters[telemetry.MetricHotCallInline]; ran < 200 {
		t.Fatalf("executes + inline counters = %d, want >= 200", ran)
	}
	if g := snap.Gauges[telemetry.MetricPoolResponders]; g < 1 {
		t.Fatalf("live-responder gauge = %d, want >= 1", g)
	}
	if g := snap.Gauges[telemetry.MetricPoolRespondersMax]; g != 2 {
		t.Fatalf("max-responder gauge = %d, want 2", g)
	}
	p.Stop()
	if g := reg.Snapshot().Gauges[telemetry.MetricPoolResponders]; g != 0 {
		t.Fatalf("live-responder gauge = %d after Stop, want 0", g)
	}
}

// TestPoolBatchedClaimExactlyOnce pins the claim protocol's exactly-once
// guarantee in the one geometry that used to break it: a SubmitV window
// as deep as the ring.  The responder that claims the window parks
// inside its first call, so all sixteen slots are claimed but still read
// posted and the claim cursor has wrapped back onto them; a second
// responder then scans the shard.  With an unstamped posted state it
// counts the in-flight slots as a fresh run, moves tail past head, and
// executes every call a second time.  No scheduler luck involved: the
// parked call is released only after the other responder has finished
// scan passes that began after the park.
func TestPoolBatchedClaimExactlyOnce(t *testing.T) {
	const (
		window = 16
		rounds = 8
	)
	var execs [rounds * window]atomic.Int32
	parked := make(chan struct{})
	release := make(chan struct{})
	opts := testPool(1, 2)
	opts.SlotsPerShard = window
	p := NewCallPool([]PoolFunc{func(_ int, data uint64) uint64 {
		if execs[data].Add(1) == 1 && data%window == 0 {
			parked <- struct{}{}
			<-release
		}
		return data
	}}, opts)
	// Two responders from the start that yield but never sleep, so the
	// second one keeps scanning while the first is parked.
	p.policy.floor, p.policy.yield = 2, 1<<30
	p.Start()
	defer p.Stop()
	defer close(release) // runs before Stop: a failed round must not leave a responder parked
	r := p.Requester()

	var calls [window]VecCall
	var rets [window]uint64
	for round := 0; round < rounds; round++ {
		for i := range calls {
			calls[i] = VecCall{ID: 0, Data: uint64(round*window + i)}
		}
		b, err := r.SubmitV(calls[:])
		if err != nil {
			t.Fatal(err)
		}
		<-parked
		// Only the unparked responder adds to the poll total (a pass is
		// booked when it returns), at least one inspection per pass: two
		// more mean a pass started after the park has completed.
		polls0, _ := p.Stats()
		waitFor(t, 10*time.Second, func() bool {
			polls, _ := p.Stats()
			return polls >= polls0+2
		}, "the second responder to scan the shard")
		release <- struct{}{}
		if err := b.WaitAll(rets[:]); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			id := round*window + i
			if n := execs[id].Load(); n != 1 {
				t.Fatalf("round %d call %d executed %d times, want exactly once", round, i, n)
			}
			if rets[i] != uint64(id) {
				t.Fatalf("round %d rets[%d] = %d, want %d", round, i, rets[i], id)
			}
		}
	}
}
