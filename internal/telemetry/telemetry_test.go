package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	r.Tracer().Emit(KindAEX, "aex", 1, 0, 0)
	if ev := r.Tracer().Events(); ev != nil {
		t.Fatal("nil tracer should have no events")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	RegisterStandard(r)
}

func TestCounterBasic(t *testing.T) {
	r := New()
	c := r.Counter("ops_total")
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	c.Add(900)
	if got := c.Load(); got != 1000 {
		t.Fatalf("counter = %d, want 1000", got)
	}
	if r.Counter("ops_total") != c {
		t.Fatal("same name should return same counter")
	}
}

// TestRegistrySnapshot: a populated registry snapshots exactly what was
// written, and the snapshot is decoupled from later writes.
func TestRegistrySnapshot(t *testing.T) {
	r := New()
	r.Counter(MetricEcalls).Add(7)
	r.Counter(MetricHotCallInline).Inc()
	snap := r.Snapshot()
	if snap.Counters[MetricEcalls] != 7 {
		t.Fatalf("ecalls = %d, want 7", snap.Counters[MetricEcalls])
	}
	if snap.Counters[MetricHotCallInline] != 1 {
		t.Fatal("inline != 1")
	}
	// Later writes must not leak into the captured snapshot.
	r.Counter(MetricEcalls).Add(100)
	if snap.Counters[MetricEcalls] != 7 {
		t.Fatal("snapshot mutated by later writes")
	}
}

// TestConcurrentWritersAndSnapshot: parallel writers hammer a counter and
// the tracer while a reader snapshots and exports.  Run with -race.
func TestConcurrentWritersAndSnapshot(t *testing.T) {
	r := New()
	tr := r.EnableDeepTracing(1 << 10)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter(MetricHotCallInline)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				if i%64 == 0 {
					tr.Emit(KindHotECall, "hot", uint64(i), 620, 0)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot()
			if snap.Counters[MetricHotCallInline] > writers*perWriter {
				t.Error("counter overshot")
				return
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			// Race the ring's reader against live Emit traffic too:
			// Events walks the ring under the same lock.
			if ev := tr.Events(); len(ev) > 1<<10 {
				t.Errorf("ring returned %d events, capacity %d", len(ev), 1<<10)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter(MetricHotCallInline).Load(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(KindEcall, "e", uint64(i), 1, 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.TS != uint64(6+i) {
			t.Fatalf("event %d has ts %d, want %d (oldest-first after wrap)", i, e.TS, 6+i)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter(MetricEcalls).Add(3)
	r.Counter(MetricAEX)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE sdk_ecalls_total counter\nsdk_ecalls_total 3\n" +
		"# TYPE sgx_aex_total counter\nsgx_aex_total 0\n"
	if got := sb.String(); got != want {
		t.Fatalf("prometheus dump = %q, want %q", got, want)
	}
}

func TestRegisterStandard(t *testing.T) {
	r := New()
	RegisterStandard(r)
	snap := r.Snapshot()
	if len(snap.Counters) != len(standardCounters) {
		t.Fatalf("%d counters registered, want %d", len(snap.Counters), len(standardCounters))
	}
	for _, name := range standardCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("standard counter %s not registered", name)
		}
	}
}
