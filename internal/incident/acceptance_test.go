package incident

import (
	"testing"
	"time"

	"hotcalls/internal/core"
	"hotcalls/internal/flight"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// TestAcceptanceFallbackStormBundle is the ISSUE's end-to-end check:
// inject a fallback storm under a live fabric workload (responder
// wedged mid-handler, window full, every call degrades to the SDK
// fallback), let the monitor fire, and assert that exactly one bundle
// is produced within the cooldown — containing at least one complete
// causal timeline of an affected (timed-out) call whose critical-path
// attribution sums exactly to its recorded latency.
func TestAcceptanceFallbackStormBundle(t *testing.T) {
	gate := make(chan struct{})
	p := core.NewCallPool([]core.PoolFunc{
		func(_ int, d uint64) uint64 { <-gate; return d },
	}, core.PoolOptions{Shards: 1, SlotsPerShard: 4, Timeout: 1024, MaxResponders: 1})

	reg := telemetry.New()
	p.SetTelemetry(reg)

	// Production-rate sampling: 1-in-256.  The tail sampler is what
	// guarantees the storm's timeouts are retained anyway — the first
	// timeout escalates the callsite to sample-every-call, so the rest
	// of the storm leaves complete timelines.
	rec := flight.New(flight.Options{SampleEvery: 256})
	p.SetFlight(rec)
	cs := rec.Callsite("storm.op")

	p.Start()
	r := p.Requester()

	// Wedge the fabric: the lone responder claims the first call and
	// blocks on the gate; three more submissions fill the window.
	parked, err := r.SubmitV([]core.VecCall{{Data: 0}, {Data: 1}, {Data: 2}, {Data: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		_ = parked.WaitAll(nil)
		p.Stop()
	}()

	m := monitor.New(reg, monitor.Options{
		Rules:         []monitor.Rule{&monitor.FallbackStormRule{}},
		Flight:        rec,
		EventDebounce: 2,
	})
	frozen := time.Now() // the whole storm falls inside one cooldown
	c := New(m, Options{Registry: reg, Now: func() time.Time { return frozen }})
	c.Attach()
	m.Tick() // baseline: the parked submissions land before the storm

	storm := func() {
		for i := 0; i < 50; i++ {
			if _, err := r.CallOrFallback(core.VecCall{Data: uint64(i), Site: cs}, func() (uint64, error) {
				return 0, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	storm()
	s := m.Tick() // rule fires critical → capture
	if s.TimeoutRate < 0.9 {
		t.Fatalf("timeout rate = %.3f, want ~1 (storm not injected?)", s.TimeoutRate)
	}

	// The storm keeps raging across two more intervals: same episode,
	// same cooldown — still exactly one bundle.
	storm()
	m.Tick()
	storm()
	m.Tick()

	bundles := c.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want exactly 1 within the cooldown", len(bundles))
	}
	b := bundles[0]
	if b.Event.Rule != "fallback-storm" || b.Event.Severity != monitor.Critical {
		t.Fatalf("bundle event = %+v, want critical fallback-storm", b.Event)
	}
	if len(b.Outliers) == 0 {
		t.Fatal("bundle retained no outlier timelines from the storm")
	}

	// At least one complete causal timeline of an affected call, with
	// the attribution summing exactly to the recorded latency.
	var affected int
	for _, path := range b.CriticalPaths {
		if path.Outcome != "timeout" || path.Name != "storm.op" {
			continue
		}
		affected++
		var sum uint64
		for _, seg := range path.Segments {
			sum += seg.NS
		}
		if sum != path.LatencyNS {
			t.Fatalf("attribution sums to %d, latency is %d: %+v", sum, path.LatencyNS, path)
		}
		if path.LatencyNS == 0 {
			t.Fatalf("affected call recorded no latency: %+v", path)
		}
	}
	if affected == 0 {
		t.Fatalf("no timed-out storm.op call in the critical-path table: %+v", b.CriticalPaths)
	}

	// The frozen stats digest names the degrading callsite.
	var row *flight.CallsiteStats
	for i := range b.Callsites {
		if b.Callsites[i].Name == "storm.op" {
			row = &b.Callsites[i]
		}
	}
	if row == nil {
		t.Fatalf("storm.op missing from frozen callsite digest: %+v", b.Callsites)
	}
	if row.Timeouts == 0 || row.Fallbacks == 0 || row.Outliers == 0 || !row.Escalated {
		t.Fatalf("frozen digest misses the storm: %+v", row)
	}
	if b.Telemetry == nil || b.Telemetry.Counters[telemetry.MetricHotCallTimeouts] == 0 {
		t.Fatal("bundle telemetry snapshot missing the timeout counter")
	}

	// A single event transition for the whole episode (S2 companion on
	// the live fabric path).
	var transitions int
	for _, e := range m.Health().Alerts { // four ticks: all inside the health window
		if e.Rule == "fallback-storm" {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("storm emitted %d event transitions across the episode, want 1", transitions)
	}
}
