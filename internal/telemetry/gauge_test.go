package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestGaugeBasic(t *testing.T) {
	r := New()
	g := r.Gauge("queue_depth")
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge should go negative: %d, want -3", got)
	}
	if r.Gauge("queue_depth") != g {
		t.Fatal("same name should return same gauge")
	}
	if g.Name() != "queue_depth" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestGaugeNilIsNoOp(t *testing.T) {
	var r *Registry
	g := r.Gauge("x")
	g.Set(9)
	if g.Load() != 0 || g.Name() != "" {
		t.Fatal("nil gauge should be inert")
	}
	if len(r.Snapshot().Gauges) != 0 {
		t.Fatal("nil registry snapshot should have no gauges")
	}
}

func TestGaugeSnapshotAndExport(t *testing.T) {
	r := New()
	r.Gauge(MetricEPCResident).Set(23)
	r.Gauge(MetricPoolResponders).Set(2)
	snap := r.Snapshot()
	if snap.Gauges[MetricEPCResident] != 23 || snap.Gauges[MetricPoolResponders] != 2 {
		t.Fatalf("gauge snapshot wrong: %v", snap.Gauges)
	}
	// Snapshot is decoupled from later writes.
	r.Gauge(MetricEPCResident).Set(99)
	if snap.Gauges[MetricEPCResident] != 23 {
		t.Fatal("snapshot mutated by later writes")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE epc_resident_pages gauge",
		"epc_resident_pages 99",
		"# TYPE hotcall_pool_responders gauge",
		"hotcall_pool_responders 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				g.Set(int64(i))
			}
			g.Set(0)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := g.Load(); got != 0 {
		t.Fatalf("every writer's last Set was 0, got %d", got)
	}
}

func TestRegisterStandardGauges(t *testing.T) {
	r := New()
	RegisterStandard(r)
	snap := r.Snapshot()
	for _, name := range standardGauges {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("standard gauge %s not registered", name)
		}
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	h.Observe(600)
	h.Observe(700)
	before := h.Snapshot()
	h.Observe(5000)
	h.Observe(6000)
	h.Observe(7000)
	after := h.Snapshot()
	d := after.Sub(before)
	if d.Count != 3 || d.Sum != 18000 {
		t.Fatalf("interval count=%d sum=%d, want 3/18000", d.Count, d.Sum)
	}
	// The interval's quantiles see only the new observations.
	if q := d.Quantile(0.50); q < 4096 || q > 8191 {
		t.Fatalf("interval p50 = %d, want within [4096,8191]", q)
	}
	// Degenerate direction: subtracting a later snapshot clamps to empty.
	if rev := before.Sub(after); rev.Count != 0 || rev.Sum != 0 {
		t.Fatalf("reversed Sub should clamp to empty, got %+v", rev)
	}
}
