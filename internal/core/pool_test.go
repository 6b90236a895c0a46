package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

// submitOne posts one asynchronous call: a SubmitV window of one.
func submitOne(r *Requester, id CallID, data uint64) (*PoolBatch, error) {
	return r.SubmitV([]VecCall{{ID: id, Data: data}})
}

// waitOne collects a window of one and returns its result.
func waitOne(b *PoolBatch) (uint64, error) {
	var ret [1]uint64
	err := b.WaitAll(ret[:])
	return ret[0], err
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
	pending := make([]*PoolBatch, 0, window)
	next := uint64(0)
	collected := uint64(0)
	for collected < 2000 {
		for len(pending) < window {
			pd, err := submitOne(r, 0, next)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, pd)
			next++
		}
		// Collect in FIFO order — the ring completes oldest-first.
		ret, err := waitOne(pending[0])
		if err != nil || ret != collected {
			t.Fatalf("call %d = (%d, %v)", collected, ret, err)
		}
		pending = pending[:copy(pending, pending[1:])]
		collected++
	}
	for _, pd := range pending {
		if _, err := waitOne(pd); err != nil {
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
	if _, err := r.CallV(VecCall{Data: 4, Segs: []Segment{{}}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("zero-copy CallV after Stop: %v, want ErrStopped", err)
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
		if _, err := submitOne(r, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submitOne(r, 0, 9); !errors.Is(err, ErrTimeout) {
		t.Fatalf("SubmitV on full window: %v, want ErrTimeout", err)
	}
	// CallOrFallback degrades to the fallback path on the same signal.
	ret, err := r.CallOrFallback(VecCall{Data: 9}, func() (uint64, error) { return 42, nil })
	if err != nil || ret != 42 {
		t.Fatalf("CallOrFallback = (%d, %v), want fallback 42", ret, err)
	}
}

// TestPoolCallZeroAlloc is the zero-allocation contract of the tentpole:
// the synchronous path and the windowed submit/collect path allocate
// nothing in steady state.
func TestPoolCallZeroAlloc(t *testing.T) {
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.Start()
	defer p.Stop()
	r := p.Requester()

	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Call(0, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Call allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		pd, err := submitOne(r, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitOne(pd); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SubmitV/WaitAll allocates %.1f per op, want 0", n)
	}

	// The timeout path: never started, so no responder drains the one
	// slot the first post fills, and every later call gives up.
	opts := testPool(1, 1)
	opts.SlotsPerShard, opts.Timeout = 1, 5
	wedged := NewCallPool(echoTable(), opts).Requester()
	if _, err := submitOne(wedged, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := wedged.Call(0, 1); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	}); n != 0 {
		t.Fatalf("timed-out Call allocates %.1f per op, want 0", n)
	}
}

// TestRequesterNextAndHandles pins the window the ports build on: Next
// names the slot the next post takes and reports it free only once the
// call posted there last is collected — a done but uncollected call keeps
// it taken — and a batch handle is its ring position's own: Len still
// reads after WaitAll, and the next window starting there gets the same
// handle.
func TestRequesterNextAndHandles(t *testing.T) {
	opts := testPool(1, 1)
	opts.SlotsPerShard = 4
	p := NewCallPool(echoTable(), opts)
	p.Start()
	defer p.Stop()
	r := p.Requester()

	var window [4]*PoolBatch
	for i := range window {
		if slot, free := r.Next(); slot != i || !free {
			t.Fatalf("before post %d: Next = (%d, %v), want (%d, true)", i, slot, free, i)
		}
		var err error
		if window[i], err = submitOne(r, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ret, err := waitOne(window[3]); err != nil || ret != 3 {
		t.Fatalf("newest call = (%d, %v), want 3", ret, err)
	}
	for r.shard.slots[0].state.Load() != slotDone {
		runtime.Gosched()
	}
	if slot, free := r.Next(); slot != 0 || free {
		t.Fatalf("slot 0 done, not collected: Next = (%d, %v), want (0, false)", slot, free)
	}
	for i, b := range window[:3] {
		if ret, err := waitOne(b); err != nil || ret != uint64(i) {
			t.Fatalf("call %d = (%d, %v)", i, ret, err)
		}
	}
	if n := window[0].Len(); n != 1 {
		t.Fatalf("Len after WaitAll = %d, want 1", n)
	}
	if slot, free := r.Next(); slot != 0 || !free {
		t.Fatalf("every call collected: Next = (%d, %v), want (0, true)", slot, free)
	}
	b, err := r.SubmitV([]VecCall{{Data: 10}, {Data: 11}})
	if err != nil || b != window[0] {
		t.Fatalf("a window at ring position 0 = (%p, %v), want the position's handle %p", b, err, window[0])
	}
	var rets [2]uint64
	if err := b.WaitAll(rets[:]); err != nil || rets != [2]uint64{10, 11} || b.Len() != 2 {
		t.Fatalf("WaitAll = (%v, %v), Len %d; want ([10 11], nil), 2", rets, err, b.Len())
	}
	if slot, free := r.Next(); slot != 2 || !free {
		t.Fatalf("after a window of two: Next = (%d, %v), want (2, true)", slot, free)
	}
}

// TestPoolCountersOwnTheirLine pins the CallPool layout a bare call's
// cost depends on: polls and executes, which responders store on every
// pass and claim, share no 64-byte line with a field every post reads, at
// whatever 8-byte-aligned address the allocator gives the pool, and
// neither does the kick count.  A layout that put a per-post pointer and
// the inline counters on the counters' line measured 480 → 575 ns per
// bare call.
func TestPoolCountersOwnTheirLine(t *testing.T) {
	var p CallPool
	type field struct {
		name      string
		off, size uintptr
	}
	counters := []field{
		{"polls", unsafe.Offsetof(p.polls), unsafe.Sizeof(p.polls)},
		{"executes", unsafe.Offsetof(p.executes), unsafe.Sizeof(p.executes)},
	}
	perPost := []field{
		{"opts", unsafe.Offsetof(p.opts), unsafe.Sizeof(p.opts)},
		{"stopped", unsafe.Offsetof(p.stopped), unsafe.Sizeof(p.stopped)},
		{"sleepers", unsafe.Offsetof(p.sleepers), unsafe.Sizeof(p.sleepers)},
		{"kicks", unsafe.Offsetof(p.kicks), unsafe.Sizeof(p.kicks)},
		{"spinMax", unsafe.Offsetof(p.spinMax), unsafe.Sizeof(p.spinMax)},
	}
	lines := func(base uintptr, f field) (first, last uintptr) {
		return (base + f.off) / cacheLine, (base + f.off + f.size - 1) / cacheLine
	}
	for base := uintptr(0); base < cacheLine; base += 8 {
		for _, c := range counters {
			cFirst, cLast := lines(base, c)
			for _, f := range perPost {
				if fFirst, fLast := lines(base, f); fFirst <= cLast && cFirst <= fLast {
					t.Errorf("pool at line offset %d: %s (offset %d) shares a cache line with %s (offset %d)",
						base, f.name, f.off, c.name, c.off)
				}
			}
		}
	}
}

// TestPoolSlotLayout pins poolSlot's three lines: the words a post writes
// end inside line 0, the descriptor block fills line 1 and the
// responder-written result starts line 2, so neither side's stores
// invalidate a line the other is writing.
func TestPoolSlotLayout(t *testing.T) {
	var s poolSlot
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"state", unsafe.Offsetof(s.state), unsafe.Sizeof(s.state)},
		{"id", unsafe.Offsetof(s.id), unsafe.Sizeof(s.id)},
		{"data", unsafe.Offsetof(s.data), unsafe.Sizeof(s.data)},
		{"nseg", unsafe.Offsetof(s.nseg), unsafe.Sizeof(s.nseg)},
	} {
		if end := f.off + f.size; end > cacheLine {
			t.Errorf("%s ends at byte %d, past line 0", f.name, end)
		}
	}
	if off := unsafe.Offsetof(s.segs); off != cacheLine {
		t.Errorf("segs at offset %d, want %d", off, cacheLine)
	}
	if off := unsafe.Offsetof(s.ret); off != 2*cacheLine {
		t.Errorf("ret at offset %d, want %d", off, 2*cacheLine)
	}
	if size := unsafe.Sizeof(poolSlot{}); size != 3*cacheLine {
		t.Errorf("poolSlot is %d bytes, want %d", size, 3*cacheLine)
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
	pending := make([]*PoolBatch, 0, window)
	for i := uint64(0); !stop.Load(); {
		for len(pending) < window {
			pd, err := submitOne(r, 0, i)
			if err != nil {
				return
			}
			pending = append(pending, pd)
			i++
		}
		for _, pd := range pending {
			if _, err := waitOne(pd); err != nil {
				return
			}
		}
		pending = pending[:0]
	}
}

// TestPoolAdaptiveScaleUp drives sustained traffic through every shard
// and requires the controller to grow the responder pool from its floor.
func TestPoolAdaptiveScaleUp(t *testing.T) {
	const shards = 4
	p := NewCallPool(echoTable(), PoolOptions{Shards: shards, MaxResponders: 3, Timeout: 1 << 20})
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
	var ran atomic.Uint64
	p := NewCallPool(countedEcho(&ran), opts)
	p.Start()

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		r := p.Requester()
		wg.Add(1)
		go func() {
			defer wg.Done()
			pending := make([]*PoolBatch, 0, 8)
			for i := uint64(0); ; i++ {
				pd, err := submitOne(r, 0, i)
				if errors.Is(err, ErrStopped) {
					break
				}
				if errors.Is(err, ErrTimeout) {
					continue
				}
				pending = append(pending, pd)
				if len(pending) == cap(pending) {
					for _, pd := range pending {
						if _, err := waitOne(pd); errors.Is(err, ErrStopped) {
							break
						}
					}
					pending = pending[:0]
				}
			}
			for _, pd := range pending {
				waitOne(pd) // collect whatever completed before Stop
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	wg.Wait()

	// Requesters that outnumber the Ps and find the responders parked run
	// their calls themselves, so the handler's runs are either side's
	// executions, and the responders' count is a part of them.
	polls, execs := p.Stats()
	if polls == 0 || ran.Load() == 0 || execs > ran.Load() {
		t.Fatalf("traffic: polls=%d responder executes=%d handler runs=%d", polls, execs, ran.Load())
	}
}

// countedEcho is an echo table whose one entry counts its executions in
// ran, whichever side runs it: a responder or the requester inline.
func countedEcho(ran *atomic.Uint64) []PoolFunc {
	return []PoolFunc{func(_ int, data uint64) uint64 {
		ran.Add(1)
		return data
	}}
}

// TestPoolTelemetryExports checks the fabric's accounting: every call ran
// exactly once, by a responder (the pool's execute count) or, the
// responder being parked, inline by the requester, and Stop leaves no
// responder live.
func TestPoolTelemetryExports(t *testing.T) {
	var ran atomic.Uint64
	p := NewCallPool(countedEcho(&ran), testPool(1, 2))
	p.Start()
	r := p.Requester()
	for i := uint64(0); i < 200; i++ {
		if _, err := r.Call(0, i); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop() // the responders publish their last counts on the way out
	polls, execs := p.Stats()
	if polls == 0 {
		t.Fatal("responder polls never moved")
	}
	if ran.Load() != 200 || execs > 200 {
		t.Fatalf("handler runs = %d, responder executes = %d, want 200 runs", ran.Load(), execs)
	}
	if n := p.Responders(); n != 0 {
		t.Fatalf("%d responders live after Stop, want 0", n)
	}
}

// TestTimeoutFallbackTelemetry covers the starvation-mitigation path end
// to end: a window no responder drains must surface as ErrTimeout and
// route CallOrFallback to the SDK fallback, which is not a fabric run.
func TestTimeoutFallbackTelemetry(t *testing.T) {
	var ran atomic.Uint64
	p := NewCallPool(countedEcho(&ran), PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 5})
	r := p.Requester()
	if _, err := submitOne(r, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Call(0, 1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	ret, err := r.CallOrFallback(VecCall{Data: 2}, func() (uint64, error) { return 777, nil })
	if err != nil || ret != 777 {
		t.Fatalf("fallback = (%d, %v)", ret, err)
	}
	if _, execs := p.Stats(); execs != 0 || ran.Load() != 0 {
		t.Fatalf("executes = %d, handler runs = %d with no responder started", execs, ran.Load())
	}
}

// TestCallSuccessTelemetry checks the happy path: every successful
// CallOrFallback ran once in the fabric, by a responder or inline, and
// none took the fallback.
func TestCallSuccessTelemetry(t *testing.T) {
	var ran atomic.Uint64
	p := NewCallPool(countedEcho(&ran), testPool(1, 1))
	p.Start()
	r := p.Requester()
	const calls = 25
	for i := uint64(0); i < calls; i++ {
		ret, err := r.CallOrFallback(VecCall{Data: i}, func() (uint64, error) {
			t.Fatalf("call %d took the fallback", i)
			return 0, nil
		})
		if err != nil || ret != i {
			t.Fatalf("CallOrFallback(%d) = (%d, %v)", i, ret, err)
		}
	}
	p.Stop()
	if _, execs := p.Stats(); ran.Load() != calls || execs > calls {
		t.Fatalf("handler runs = %d, responder executes = %d, want %d runs", ran.Load(), execs, calls)
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
