package monitor

import (
	"slices"
	"strings"
	"testing"

	"hotcalls/internal/core"
	"hotcalls/internal/telemetry"
)

// startPool starts a fabric of the given shape counting into reg, with fn
// as its one call — the live traffic source of the tests and benchmarks
// that watch a real protocol — and stops it with the test.
func startPool(tb testing.TB, reg *telemetry.Registry, opts core.PoolOptions, fn core.PoolFunc) *core.CallPool {
	p := core.NewCallPool([]core.PoolFunc{fn}, opts)
	p.SetTelemetry(reg)
	p.Start()
	tb.Cleanup(p.Stop)
	return p
}

// events returns a copy of the monitor's retained event log, oldest
// first.
func events(m *Monitor) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.events)
}

// bump is a test helper that advances a counter by n.
func bump(reg *telemetry.Registry, name string, n uint64) {
	reg.Counter(name).Add(n)
}

func TestSamplerDeltasAndRates(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick() // baseline

	bump(reg, telemetry.MetricHotCallRequests, 100)
	bump(reg, telemetry.MetricHotCallTimeouts, 10)
	bump(reg, telemetry.MetricHotCallFallbacks, 8)
	bump(reg, telemetry.MetricResponderPolls, 1000)
	bump(reg, telemetry.MetricResponderExecutes, 90)
	bump(reg, telemetry.MetricSpinCycles, 60000)
	bump(reg, telemetry.MetricMEENodeHits, 75)
	bump(reg, telemetry.MetricMEENodeMiss, 25)
	reg.Gauge(telemetry.MetricEPCResident).Set(42)
	for i := 0; i < 20; i++ {
		reg.Histogram(telemetry.MetricHotCallCycles).Observe(600)
	}
	s := m.Tick()

	if s.DSubmissions != 100 || s.DTimeouts != 10 || s.DFallbacks != 8 {
		t.Fatalf("deltas wrong: %+v", s)
	}
	if s.TimeoutRate != 0.10 || s.FallbackRate != 0.08 {
		t.Fatalf("rates wrong: timeout %.3f fallback %.3f", s.TimeoutRate, s.FallbackRate)
	}
	if s.Occupancy != 0.09 {
		t.Fatalf("occupancy = %.3f, want 0.09", s.Occupancy)
	}
	if s.MEEHitRate != 0.75 {
		t.Fatalf("mee hit rate = %.3f, want 0.75", s.MEEHitRate)
	}
	if s.EPCResident != 42 {
		t.Fatalf("epc resident = %d, want 42", s.EPCResident)
	}
	if s.LatencyCount != 20 || s.LatencyP50 < 512 || s.LatencyP50 > 1023 {
		t.Fatalf("interval latency wrong: count=%d p50=%d", s.LatencyCount, s.LatencyP50)
	}

	// A quiet interval has zero deltas even though the cumulative
	// readings persist.
	q := m.Tick()
	if q.DSubmissions != 0 || q.TimeoutRate != 0 || q.LatencyCount != 0 {
		t.Fatalf("quiet interval should have zero deltas: %+v", q)
	}
	if q.Requests != 100 {
		t.Fatalf("cumulative requests = %d, want 100", q.Requests)
	}
}

func TestSamplerChannelSubmissionsFallback(t *testing.T) {
	// The simulated-cycle Channel counts hot ecalls/ocalls but not the
	// requests counter; the sampler must treat those as submissions.
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	bump(reg, telemetry.MetricHotECalls, 30)
	bump(reg, telemetry.MetricHotOCalls, 20)
	s := m.Tick()
	if s.DSubmissions != 50 {
		t.Fatalf("channel submissions = %d, want 50", s.DSubmissions)
	}
}

func TestNilRegistrySamples(t *testing.T) {
	m := New(nil, Options{})
	s := m.Tick()
	if s.Requests != 0 || s.DSubmissions != 0 {
		t.Fatalf("nil registry should sample zeros: %+v", s)
	}
	if h := m.Health(); h.Status != "ok" {
		t.Fatalf("nil registry health = %s", h.Status)
	}
}

func TestRingBounded(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	for i := 0; i < ringCap+6; i++ {
		m.Tick()
	}
	w := m.Window(0)
	if len(w) != ringCap {
		t.Fatalf("window = %d samples, want %d", len(w), ringCap)
	}
	for i, s := range w {
		if s.Seq != 6+i {
			t.Fatalf("window[%d].Seq = %d, want %d (oldest-first after wrap)", i, s.Seq, 6+i)
		}
	}
}

func TestEventLogBounded(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	for i := 0; i < eventCap+2; i++ {
		bump(reg, telemetry.MetricEPCEvictions, 5000)
		m.Tick()
	}
	ev := events(m)
	if len(ev) != eventCap {
		t.Fatalf("event log = %d, want %d", len(ev), eventCap)
	}
	if got := m.DroppedEvents(); got != 2 {
		t.Fatalf("dropped events = %d, want 2", got)
	}
}

// TestFallbackStormOnSleepingResponder is the acceptance test: a
// responder that never hands a slot back turns every HotCall into a
// timeout→fallback, and the monitor must diagnose it — while the same
// workload with a live responder raises no alerts.
func TestFallbackStormOnSleepingResponder(t *testing.T) {
	reg := telemetry.New()
	// Fill the one-slot window with a call whose handler does not return
	// — the "responder asleep" condition.
	gate := make(chan struct{})
	r := startPool(t, reg, core.PoolOptions{Shards: 1, SlotsPerShard: 1},
		func(int, uint64) uint64 { <-gate; return 0 }).Requester()
	wedged, err := r.SubmitV([]core.VecCall{{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		if err := wedged.WaitAll(nil); err != nil {
			t.Errorf("wedged call after the handler returned: %v", err)
		}
	}()

	m := New(reg, Options{})
	m.Tick() // baseline

	// Every subsequent call exhausts its submission attempts and falls
	// back to the SDK path.
	var fallbacks int
	for i := 0; i < 50; i++ {
		if _, err := r.CallOrFallback(core.VecCall{}, func() (uint64, error) {
			fallbacks++
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fallbacks != 50 {
		t.Fatalf("fallbacks = %d, want 50", fallbacks)
	}

	s := m.Tick()
	if s.TimeoutRate < 0.9 || s.FallbackRate < 0.9 {
		t.Fatalf("timeout rate = %.3f, fallback rate = %.3f, want ~1", s.TimeoutRate, s.FallbackRate)
	}
	ev := events(m)
	var storm *Event
	for i := range ev {
		if ev[i].Rule == "fallback-storm" {
			storm = &ev[i]
		}
	}
	if storm == nil {
		t.Fatalf("fallback-storm rule did not fire; events: %+v", ev)
	}
	if storm.Severity != Critical {
		t.Fatalf("storm severity = %s, want critical", storm.Severity)
	}
	if !strings.Contains(storm.Diagnosis, "responder asleep or overloaded") {
		t.Fatalf("diagnosis does not name the cause: %q", storm.Diagnosis)
	}
	if h := m.Health(); h.Status != "critical" {
		t.Fatalf("health = %s, want critical", h.Status)
	}
}

// TestHealthyRunRaisesNoAlerts is the acceptance counterpart: the same
// workload with a live responder stays clean under the default rules.
// The idle ladder parks the responder between bursts, which bounds the
// polls per call and keeps occupancy above the spin-waste floor on any
// scheduler.
func TestHealthyRunRaisesNoAlerts(t *testing.T) {
	reg := telemetry.New()
	p := startPool(t, reg, core.PoolOptions{Shards: 1}, func(int, uint64) uint64 { return 7 })
	r := p.Requester()

	m := New(reg, Options{})
	m.Tick()
	for i := 0; i < 200; i++ {
		if _, err := r.Call(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop() // the responders publish their last counts on the way out
	s := m.Tick()

	if s.DSubmissions != 200 || s.DTimeouts != 0 {
		t.Fatalf("healthy run deltas wrong: %+v", s)
	}
	if ev := events(m); len(ev) != 0 {
		t.Fatalf("healthy run raised alerts: %+v", ev)
	}
	if h := m.Health(); h.Status != "ok" {
		t.Fatalf("health = %s, want ok", h.Status)
	}
}

func TestLatencySLOBurnRate(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{Rules: []Rule{&LatencySLORule{}}})
	m.Tick()

	// Healthy intervals: p99 well under the objective — no alert even
	// over many samples.
	for i := 0; i < 6; i++ {
		for j := 0; j < 20; j++ {
			reg.Histogram(telemetry.MetricHotCallCycles).Observe(600)
		}
		m.Tick()
	}
	if ev := events(m); len(ev) != 0 {
		t.Fatalf("healthy latency raised alerts: %+v", ev)
	}

	// One breaching interval is a blip: the fast window (3) is not yet
	// majority-breaching.
	for j := 0; j < 20; j++ {
		reg.Histogram(telemetry.MetricHotCallCycles).Observe(9000)
	}
	m.Tick()
	if ev := events(m); len(ev) != 0 {
		t.Fatalf("single blip should not alert: %+v", ev)
	}

	// Sustained breach: fast window saturates, then the slow window
	// catches up and escalates to critical.
	var sawWarning, sawCritical bool
	for i := 0; i < 6; i++ {
		for j := 0; j < 20; j++ {
			reg.Histogram(telemetry.MetricHotCallCycles).Observe(9000)
		}
		m.Tick()
		for _, e := range events(m) {
			switch e.Severity {
			case Warning:
				sawWarning = true
			case Critical:
				sawCritical = true
			}
		}
	}
	if !sawCritical {
		t.Fatalf("sustained breach never went critical (warning seen: %v); events: %+v",
			sawWarning, events(m))
	}
	for _, e := range events(m) {
		if e.Rule != "latency-slo" {
			t.Fatalf("unexpected rule %q", e.Rule)
		}
		if !strings.Contains(e.Diagnosis, "burn rate") {
			t.Fatalf("diagnosis missing burn rate: %q", e.Diagnosis)
		}
	}
}

func TestEPCThrashRule(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	bump(reg, telemetry.MetricEPCEvictions, 500)
	bump(reg, telemetry.MetricEPCFaults, 520)
	reg.Gauge(telemetry.MetricEPCResident).Set(23000)
	m.Tick()
	ev := events(m)
	if len(ev) != 1 || ev[0].Rule != "epc-thrash" || ev[0].Severity != Warning {
		t.Fatalf("expected one epc-thrash warning, got %+v", ev)
	}
	if !strings.Contains(ev[0].Diagnosis, "working set has outgrown the EPC") {
		t.Fatalf("diagnosis: %q", ev[0].Diagnosis)
	}

	bump(reg, telemetry.MetricEPCEvictions, 10000)
	m.Tick()
	ev = events(m)
	if ev[len(ev)-1].Severity != Critical {
		t.Fatalf("sustained thrash should be critical: %+v", ev[len(ev)-1])
	}
}

func TestSpinWasteRule(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	// A responder burning 100k polls for 10 executes is 0.0001
	// occupancy — below even the critical floor.
	bump(reg, telemetry.MetricResponderPolls, 100000)
	bump(reg, telemetry.MetricResponderExecutes, 10)
	m.Tick()
	ev := events(m)
	if len(ev) != 1 || ev[0].Rule != "spin-waste" || ev[0].Severity != Critical {
		t.Fatalf("expected critical spin-waste, got %+v", ev)
	}

	// Per-call sync budget: 50 calls costing 200k spin cycles is 4,000
	// cycles/call against the 2,048 budget.
	bump(reg, telemetry.MetricHotECalls, 50)
	bump(reg, telemetry.MetricSpinCycles, 200000)
	m.Tick()
	ev = events(m)
	last := ev[len(ev)-1]
	if last.Rule != "spin-waste" || !strings.Contains(last.Diagnosis, "cycles/call") {
		t.Fatalf("expected per-call budget event, got %+v", last)
	}
}

func TestHealthWindowExpiry(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	bump(reg, telemetry.MetricEPCEvictions, 500)
	m.Tick()
	// The alert stays active for healthWindow samples, its own included.
	for i := 0; i < healthWindow; i++ {
		if h := m.Health(); h.Status != "degraded" {
			t.Fatalf("health %d samples after the alert = %s, want degraded", i, h.Status)
		}
		m.Tick()
	}
	// The healthWindow-th quiet sample ages the alert out of the health
	// window; the event log still retains it.
	if h := m.Health(); h.Status != "ok" || len(h.Alerts) != 0 {
		t.Fatalf("alert should have aged out: %+v", h)
	}
	if len(events(m)) != 1 {
		t.Fatal("event log should retain the aged-out event")
	}
}

func TestOnEventCallback(t *testing.T) {
	reg := telemetry.New()
	var got []Event
	m := New(reg, Options{})
	m.SetOnEvent(func(e Event) { got = append(got, e) })
	m.Tick()
	bump(reg, telemetry.MetricEPCEvictions, 500)
	m.Tick()
	if len(got) != 1 || got[0].Rule != "epc-thrash" {
		t.Fatalf("callback events: %+v", got)
	}
}

func TestRenderText(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	bump(reg, telemetry.MetricHotCallRequests, 100)
	bump(reg, telemetry.MetricEPCEvictions, 500)
	m.Tick()
	out := m.RenderText(10)
	for _, want := range []string{"health: degraded", "seq", "p99", "epc-thrash", "alerts:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
