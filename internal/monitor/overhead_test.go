package monitor

import (
	"testing"
	"time"

	"hotcalls/internal/core"
	"hotcalls/internal/telemetry"
)

// runCallBench drives the real fabric protocol for b.N calls, optionally
// with a live monitor sampling at a production-like interval.  Comparing
// the two benchmarks is the instrumented-pair overhead measurement for
// the monitor (target <=1%, recorded in EXPERIMENTS.md): the monitor
// only reads registry snapshots, so the hot path never sees it.
func runCallBench(b *testing.B, every time.Duration) {
	reg := telemetry.New()
	telemetry.RegisterStandard(reg)
	r := startPool(b, reg, core.PoolOptions{Shards: 1}, func(int, uint64) uint64 { return 0 }).Requester()
	if every > 0 {
		m := New(reg, Options{})
		m.every = every
		m.Start()
		defer m.Stop()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Call(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallTelemetry is the baseline: telemetry attached, no monitor.
func BenchmarkCallTelemetry(b *testing.B) { runCallBench(b, 0) }

// BenchmarkCallMonitored adds a live monitor at the production default
// sampling interval (250ms).
func BenchmarkCallMonitored(b *testing.B) { runCallBench(b, interval) }

// BenchmarkCallMonitored10ms oversamples 25x faster than production to
// amplify whatever cost the sampler has; on a single-CPU host this also
// measures the scheduler churn of waking a third goroutine into a
// spinning requester/responder pair.
func BenchmarkCallMonitored10ms(b *testing.B) { runCallBench(b, 10*time.Millisecond) }

// BenchmarkCallTickerControl parks a ticker goroutine that never fires
// during the run.  On a single-CPU host it shows the same delta as
// BenchmarkCallMonitored, proving the pair's gap is the runtime's timer
// bookkeeping around the spinning requester/responder — not sampling
// work (see BenchmarkTick for the monitor's actual per-sample cost).
func BenchmarkCallTickerControl(b *testing.B) { runCallBench(b, time.Hour) }

// BenchmarkTick is the direct per-sample cost: one registry snapshot plus
// rule evaluation over the window.  Multiply by the sampling rate for the
// monitor's duty cycle (e.g. 10us/sample at 4 samples/s = 0.004% of one
// core).
func BenchmarkTick(b *testing.B) {
	reg := telemetry.New()
	telemetry.RegisterStandard(reg)
	// Populate the histogram so quantile interpolation runs its real path.
	h := reg.Histogram(telemetry.MetricHotCallCycles)
	for i := 0; i < 4096; i++ {
		h.Observe(uint64(500 + i%512))
	}
	m := New(reg, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}
