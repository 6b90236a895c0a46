package core

import (
	"errors"
	"sync"
	"testing"

	"hotcalls/internal/sim"
)

// patientHotCall is the single slot for tests whose requesters contend
// for its lock.  DefaultTimeout is ten trips through the scheduler, and a
// call holds the lock from its post to its completion: three other
// requesters taking their turns — slower under the race detector, or
// sharing a busy P — exhaust it, and a test of something else fails with
// ErrTimeout.  The responder never takes the lock, so a lone caller cannot
// time out and takes the zero value.
func patientHotCall() *HotCall { return &HotCall{Timeout: 1 << 20} }

func startResponder(hc *HotCall, table []func(interface{}) uint64) (*Responder, *sync.WaitGroup) {
	r := NewResponder(hc, table)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Run()
	}()
	return r, &wg
}

func TestHotCallBasic(t *testing.T) {
	var hc HotCall
	table := []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) + 1 },
		func(d interface{}) uint64 { return d.(uint64) * 2 },
	}
	_, wg := startResponder(&hc, table)
	defer func() { hc.Stop(); wg.Wait() }()

	if ret, err := hc.Call(0, uint64(41)); err != nil || ret != 42 {
		t.Fatalf("Call(0, 41) = (%d, %v)", ret, err)
	}
	if ret, err := hc.Call(1, uint64(21)); err != nil || ret != 42 {
		t.Fatalf("Call(1, 21) = (%d, %v)", ret, err)
	}
	// The face adds no allocation to the fabric's call: the caller boxed
	// the payload, NewResponder wrapped the table once.
	boxed := interface{}(uint64(1))
	if n := testing.AllocsPerRun(200, func() { hc.Call(0, boxed) }); n != 0 {
		t.Fatalf("Call allocates %.1f per op, want 0", n)
	}
}

func TestHotCallSequence(t *testing.T) {
	var hc HotCall
	table := []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) ^ 0xdead },
	}
	_, wg := startResponder(&hc, table)
	defer func() { hc.Stop(); wg.Wait() }()
	for i := uint64(0); i < 2000; i++ {
		ret, err := hc.Call(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if ret != i^0xdead {
			t.Fatalf("call %d returned %d", i, ret)
		}
	}
}

// TestHotCallConcurrentRequesters drives the one claim protocol through
// the face: four requesters contend for the lock in front of the one-slot
// ring, every result must be its own call's, and every call must have
// executed exactly once — on the responder, which alone writes execs.
func TestHotCallConcurrentRequesters(t *testing.T) {
	const requesters, callsEach = 4, 3000
	hc := patientHotCall()
	execs := make([]uint8, requesters*callsEach)
	table := []func(interface{}) uint64{
		func(d interface{}) uint64 { execs[d.(uint64)]++; return d.(uint64) * 3 },
	}
	_, wg := startResponder(hc, table)

	errs := make(chan error, requesters)
	for g := 0; g < requesters; g++ {
		go func(g int) {
			for i := 0; i < callsEach; i++ {
				v := uint64(g*callsEach + i)
				ret, err := hc.Call(0, v)
				if err != nil {
					errs <- err
					return
				}
				if ret != v*3 {
					errs <- errors.New("wrong result under contention")
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < requesters; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	hc.Stop()
	wg.Wait()
	for v, n := range execs {
		if n != 1 {
			t.Fatalf("call %d executed %d times, want exactly once", v, n)
		}
	}
}

func TestHotCallBadID(t *testing.T) {
	var hc HotCall
	_, wg := startResponder(&hc, []func(interface{}) uint64{
		func(interface{}) uint64 { return 0 },
	})
	defer func() { hc.Stop(); wg.Wait() }()
	ret, err := hc.Call(99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != ^uint64(0) {
		t.Fatalf("bad ID returned %d, want sentinel", ret)
	}
}

// Stop, after NewResponder or before it, lets Run return and answers
// every later call with ErrStopped.
func TestHotCallStop(t *testing.T) {
	table := []func(interface{}) uint64{func(interface{}) uint64 { return 1 }}
	var after, before HotCall
	_, wg := startResponder(&after, table)
	after.Stop()
	wg.Wait()
	before.Stop()
	_, wg = startResponder(&before, table)
	wg.Wait()
	for name, hc := range map[string]*HotCall{"after": &after, "before": &before} {
		if _, err := hc.Call(0, nil); !errors.Is(err, ErrStopped) {
			t.Errorf("Stop %s NewResponder: err = %v, want ErrStopped", name, err)
		}
	}
}

func TestHotCallTimeoutFallback(t *testing.T) {
	// No responder was ever started — a slot that stays taken: Call must
	// time out with ErrTimeout, the signal a caller falls back to the SDK
	// path on.
	hc := HotCall{Timeout: 5}
	if _, err := hc.Call(0, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestResponderStats(t *testing.T) {
	var hc HotCall
	r, wg := startResponder(&hc, []func(interface{}) uint64{
		func(interface{}) uint64 { return 0 },
	})
	for i := 0; i < 50; i++ {
		hc.Call(0, nil)
	}
	hc.Stop()
	wg.Wait()
	polls, executes := r.Stats()
	if executes != 50 {
		t.Fatalf("executes = %d, want 50", executes)
	}
	if polls < executes {
		t.Fatalf("polls = %d < executes", polls)
	}
}

// --- Latency model (Figure 3) ---

func TestFigure3LatencyModel(t *testing.T) {
	rng := sim.NewRNG(99)
	m := NewLatencyModel(rng)
	const runs = 200000 // the paper's 10 batches of 20,000
	s := sim.NewSample(runs)
	for i := 0; i < runs; i++ {
		s.Add(m.Sample())
	}
	med := s.Median()
	f620 := s.FractionBelow(620)
	f1400 := s.FractionBelow(1400)
	t.Logf("median=%.0f  P(<=620)=%.3f  P(<=1400)=%.5f", med, f620, f1400)
	// Paper: most calls ~620 cycles; over 78% below 620; 99.97% within
	// 1,400.
	if med < 450 || med > 620 {
		t.Errorf("median = %.0f, want ~540-620", med)
	}
	if f620 < 0.75 || f620 > 0.90 {
		t.Errorf("P(<=620) = %.3f, want ~0.78", f620)
	}
	if f1400 < 0.995 {
		t.Errorf("P(<=1400) = %.5f, want >= 0.995 (paper: 0.9997)", f1400)
	}
}

func TestLatencyModelDeterminism(t *testing.T) {
	a := NewLatencyModel(sim.NewRNG(5))
	b := NewLatencyModel(sim.NewRNG(5))
	for i := 0; i < 1000; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("model not deterministic under equal seeds")
		}
	}
}
