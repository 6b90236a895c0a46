package flight

import (
	"strings"
	"testing"
)

// TestEWMAWarmStart pins the cold-start fix: the very first digest must
// already carry a meaningful arrival rate, measured from the recorder's
// birth.  Before the fix the first window was consumed priming
// prevArrivals, every callsite reported RateEWMA 0 until the second
// digest, and any rate consumer (the wasted-spin attribution, the
// callsite rules) started poisoned.
func TestEWMAWarmStart(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("warm.op")
	for i := 0; i < 500; i++ {
		play(r, clk, cs, 0, 0, 10)
	}
	clk.set(500_000_001) // 0.5s since the recorder's birth at t=1
	stats := r.Stats()   // first digest ever
	if len(stats) != 1 {
		t.Fatalf("stats rows = %d, want 1", len(stats))
	}
	if got := stats[0].RateEWMA; got < 900 || got > 1100 {
		t.Fatalf("first-digest RateEWMA = %.1f, want ~1000/s (cold-start bias)", got)
	}
}

// TestEWMASameInstantRedigest pins the other half of the cold-start
// audit: a re-digest landing on the same monotonic nanosecond (Stats
// right after Digest) must not fold a zero-length window — and, in
// particular, must not absorb the arrivals since the last real fold
// into prevArrivals, which would silently drop them from the next
// window's rate.
func TestEWMASameInstantRedigest(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")

	for i := 0; i < 100; i++ {
		play(r, clk, cs, 0, 0, 10)
	}
	clk.set(1_000_000_001)
	r.Digest() // window 1: ~100/s
	r.Digest() // same instant: must be a rate no-op

	for i := 0; i < 100; i++ {
		play(r, clk, cs, 0, 0, 10)
	}
	clk.set(2_000_000_001)
	r.Digest() // window 2: ~100/s again

	stats := r.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats rows = %d, want 1", len(stats))
	}
	// Healthy: EWMA stays ~100.  If the same-instant digest absorbed
	// window 2's arrivals, window 2 folds as ~0/s and the EWMA collapses
	// to (1-ewmaAlpha)·100 = ~70.
	if got := stats[0].RateEWMA; got < 90 || got > 110 {
		t.Fatalf("RateEWMA after same-instant re-digest = %.1f, want ~100/s", got)
	}
}

// TestWritePrometheus checks the scrapeable per-callsite surface: every
// family the callsite rules consume (arrival rate, tail latency,
// wasted spin) appears as a labelled series.
func TestWritePrometheus(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	get := r.Callsite("mc.get")
	set := r.Callsite("mc.set")
	for i := 0; i < 8; i++ {
		play(r, clk, get, 0, 0, 1000)
	}
	play(r, clk, set, 0, 0, 2000)
	clk.set(1_000_000_001)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE flight_callsite_arrivals_total counter",
		`flight_callsite_arrivals_total{callsite="mc.get"} 8`,
		`flight_callsite_arrivals_total{callsite="mc.set"} 1`,
		"# TYPE flight_callsite_arrival_rate_per_s gauge",
		`flight_callsite_latency_p99_ns{callsite="mc.get"}`,
		`flight_callsite_wasted_spin_polls_total{callsite="mc.set"}`,
		"# TYPE flight_callsite_service_p50_ns gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var empty *Recorder
	if err := empty.WritePrometheus(&sb); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
}
