package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hotcalls/internal/sim"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	h := r.Histogram("y")
	h.Observe(100)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram should snapshot empty")
	}
	r.Tracer().Emit(KindAEX, "aex", 1, 0, 0)
	if ev := r.Tracer().Events(); ev != nil {
		t.Fatal("nil tracer should have no events")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
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

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_cycles")
	// 0 goes in bucket 0; 1 in bucket 1 (le 1); 620 in bucket 10 (le 1023).
	h.Observe(0)
	h.Observe(1)
	h.Observe(620)
	h.Observe(620)
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 1241 {
		t.Fatalf("count=%d sum=%d, want 4/1241", s.Count, s.Sum)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[10] != 2 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets[:12])
	}
	// Interpolated quantiles: the p99 rank (3 of 4) is the first of the
	// two observations in bucket [512,1023], so the midpoint convention
	// puts it 3/4 of the way through the bucket: 512 + 0.75*511 = 895.
	if got := s.Quantile(0.99); got != 895 {
		t.Fatalf("p99 = %d, want 895", got)
	}
	// The p50 rank lands at the first quarter of the same bucket —
	// 639, within one bucket of the true 620.
	if got := s.Quantile(0.50); got != 639 {
		t.Fatalf("p50 = %d, want 639", got)
	}
}

func TestBucketUpperBounds(t *testing.T) {
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(10) != 1023 {
		t.Fatal("log2 bucket bounds wrong")
	}
	if BucketUpper(64) != math.MaxUint64 {
		t.Fatal("last bucket must cover MaxUint64")
	}
	// Every uint64 maps to a valid bucket with value <= upper bound.
	for _, v := range []uint64{0, 1, 2, 3, 1023, 1024, math.MaxUint64} {
		b := bucketOf(v)
		if b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v > BucketUpper(b) {
			t.Fatalf("value %d above its bucket bound %d", v, BucketUpper(b))
		}
	}
}

// TestRegistrySnapshot is the satellite snapshot test: a populated
// registry snapshots exactly what was written, and the snapshot is
// decoupled from later writes.
func TestRegistrySnapshot(t *testing.T) {
	r := New()
	r.Counter(MetricEcalls).Add(7)
	r.Counter(MetricHotCallFallbacks).Inc()
	r.Histogram(MetricHotCallCycles).Observe(8640)
	snap := r.Snapshot()
	if snap.Counters[MetricEcalls] != 7 {
		t.Fatalf("ecalls = %d, want 7", snap.Counters[MetricEcalls])
	}
	if snap.Counters[MetricHotCallFallbacks] != 1 {
		t.Fatal("fallbacks != 1")
	}
	h := snap.Histograms[MetricHotCallCycles]
	if h.Count != 1 || h.Sum != 8640 {
		t.Fatalf("histogram snapshot %+v", h)
	}
	// Later writes must not leak into the captured snapshot.
	r.Counter(MetricEcalls).Add(100)
	r.Histogram(MetricHotCallCycles).Observe(1)
	if snap.Counters[MetricEcalls] != 7 || snap.Histograms[MetricHotCallCycles].Count != 1 {
		t.Fatal("snapshot mutated by later writes")
	}
}

// TestConcurrentWritersAndSnapshot is the satellite race test: parallel
// writers hammer counters, histograms, and the tracer while a reader
// snapshots and exports.  Run with -race.
func TestConcurrentWritersAndSnapshot(t *testing.T) {
	r := New()
	tr := r.EnableTracing(1 << 10)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter(MetricHotCallRequests)
			h := r.Histogram(MetricHotCallCycles)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(uint64(600 + i%100))
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
			if snap.Counters[MetricHotCallRequests] > writers*perWriter {
				t.Error("counter overshot")
				return
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			// Race the exporters against live Emit traffic too: the
			// Chrome trace writer walks the ring under the same lock.
			sb.Reset()
			if err := r.WriteChromeTrace(&sb); err != nil {
				t.Error(err)
				return
			}
			_ = tr.Events()
			_ = tr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter(MetricHotCallRequests).Load(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
	snap := r.Histogram(MetricHotCallCycles).Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", snap.Count, writers*perWriter)
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
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter(MetricEcalls).Add(3)
	r.Histogram(MetricHotCallCycles).Observe(620)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE sdk_ecalls_total counter",
		"sdk_ecalls_total 3",
		"# TYPE hotcall_cycles histogram",
		`hotcall_cycles_bucket{le="1023"} 1`,
		`hotcall_cycles_bucket{le="+Inf"} 1`,
		"hotcall_cycles_sum 620",
		"hotcall_cycles_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	tr := r.EnableTracing(16)
	tr.Emit(KindEcall, "ecall:empty", 1000, 8640, 0)
	tr.Emit(KindAEX, "aex", 5000, 0, 0)
	tr.Emit(KindEPCFault, "epc_fault", 6000, 5300, 2)
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var phases []string
	for _, e := range decoded.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "X") || !strings.Contains(joined, "i") || !strings.Contains(joined, "M") {
		t.Fatalf("expected complete, instant, and metadata events, got phases %v", phases)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := New()
	r.Counter(MetricHotCallRequests).Add(42)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "hotcall_requests_total 42") {
		t.Fatalf("handler response: %d %q", rec.Code, rec.Body.String())
	}
}

// TestQuantileMatchesSample cross-checks the log2-bucket interpolated
// quantiles against exact order statistics (sim.Sample.Percentile) on
// identical data.  Within-bucket interpolation assumes a uniform spread
// across the bucket, so uniform data must agree tightly.
func TestQuantileMatchesSample(t *testing.T) {
	r := New()
	h := r.Histogram("xval_cycles")
	var sample sim.Sample
	for i := 0; i < 10000; i++ {
		v := uint64(500 + (i*7919)%1500) // uniform-ish over [500, 2000)
		h.Observe(v)
		sample.Add(float64(v))
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q float64
		p float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}} {
		got := float64(s.Quantile(tc.q))
		want := sample.Percentile(tc.p)
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Fatalf("q%.0f: histogram %.0f vs exact %.0f (%.1f%% off)", tc.p, got, want, rel*100)
		}
	}
	// Quantiles must be monotone in q and bracketed by the data range.
	prev := uint64(0)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%.2f: %d < %d", q, v, prev)
		}
		prev = v
	}
	if lo, hi := s.Quantile(0), s.Quantile(1); lo < 256 || hi > 2047 {
		t.Fatalf("quantile range [%d, %d] outside data buckets", lo, hi)
	}
}

// TestChromeTraceGolden is the export-determinism satellite: the Chrome
// trace of a fixed event stream must be byte-identical across calls and
// match the checked-in golden file (set UPDATE_GOLDEN=1 to regenerate).
func TestChromeTraceGolden(t *testing.T) {
	r := New()
	tr := r.EnableDeepTracing(32)
	tr.Emit(KindEEnter, "eenter", 1820, 3082, 1)
	tr.Emit(KindMemAccess, "load", 4902, 12, 0)
	tr.Emit(KindMarshal, "stage:ecall_in", 4914, 356, 0)
	tr.Emit(KindEcall, "ecall:ecall_in", 0, 9952, 0)
	tr.Emit(KindSpin, "hotcall-sync", 10000, 540, 0)
	tr.Emit(KindMEEMiss, "mee-walk", 11000, 0, 3)
	var a, b strings.Builder
	if err := r.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Chrome trace export is not deterministic across calls")
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(a.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1): %v", err)
	}
	if a.String() != string(want) {
		t.Fatalf("Chrome trace drifted from golden file:\n got: %s\nwant: %s", a.String(), want)
	}
}

func TestRegisterStandard(t *testing.T) {
	r := New()
	RegisterStandard(r)
	snap := r.Snapshot()
	for _, name := range []string{MetricEcalls, MetricHotCallFallbacks, MetricHotCallInline, MetricHotCallRejected, MetricResponderKicks, MetricAEX, MetricEPCFaults} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("standard counter %s not registered", name)
		}
	}
	for _, name := range standardHistograms {
		if _, ok := snap.Histograms[name]; !ok {
			t.Fatalf("standard histogram %s not registered", name)
		}
	}
}
