package monitor

import (
	"sync"
	"testing"
	"time"

	"hotcalls/internal/core"
	"hotcalls/internal/telemetry"
)

// TestMonitorVsWorkloadRace is the satellite race test, mirroring the
// PR 2 tracer-vs-exporter pattern: a live fabric workload hammers the
// registry from several goroutines while the monitor samples on its own
// goroutine and a reader pulls the health verdict, the text table and
// the event log concurrently.  Run with -race.
func TestMonitorVsWorkloadRace(t *testing.T) {
	reg := telemetry.New()
	telemetry.RegisterStandard(reg)
	const requesters = 4
	const perRequester = 500
	p := startPool(t, reg, core.PoolOptions{Shards: requesters}, func(int, uint64) uint64 { return 1 })

	m := New(reg, Options{})
	m.every = time.Millisecond // Start's goroutine ticks while the callers run
	m.Start()

	var callers sync.WaitGroup
	for g := 0; g < requesters; g++ {
		r := p.Requester()
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < perRequester; i++ {
				if _, err := r.CallOrFallback(core.VecCall{}, func() (uint64, error) { return 0, nil }); err != nil {
					t.Error(err)
					return
				}
				// Feed the histogram and gauges too, so the sampler's
				// delta math races against live writers of every type.
				reg.Histogram(telemetry.MetricHotCallCycles).Observe(uint64(600 + i%64))
				reg.Gauge(telemetry.MetricEPCResident).Set(int64(i))
			}
		}()
	}

	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for i := 0; i < 200; i++ {
			_ = m.Health()
			_ = m.RenderText(20)
			_ = m.Window(0)
			_ = events(m)
			m.Tick() // manual ticks interleaved with the Start goroutine
		}
	}()

	callers.Wait()
	<-readers
	p.Stop()
	m.Stop()

	// The final cumulative view must account for every call.
	s := m.Tick()
	if s.Requests != requesters*perRequester {
		t.Fatalf("requests = %d, want %d", s.Requests, requesters*perRequester)
	}
	// Stop is idempotent and Start/Stop can cycle.
	m.Stop()
	m.Start()
	m.Stop()
}
