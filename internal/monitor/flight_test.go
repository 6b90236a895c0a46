package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// flightClock is a deterministic flight.Options.Now source.
type flightClock struct{ ns atomic.Uint64 }

func newFlightClock() *flightClock {
	c := &flightClock{}
	c.ns.Store(1)
	return c
}

func (c *flightClock) now() uint64      { return c.ns.Load() }
func (c *flightClock) advance(d uint64) { c.ns.Add(d) }

// driveCalls runs n complete calls through the recorder on shard 0.
func driveCalls(f *flight.Recorder, cs flight.Callsite, clk *flightClock, n int) {
	for i := 0; i < n; i++ {
		rec := f.Begin(cs, 0, 1)
		clk.advance(500)
		rec.Return(clk.now())
	}
}

// driveTimeouts runs n timed-out submission attempts.
func driveTimeouts(f *flight.Recorder, cs flight.Callsite, clk *flightClock, n int) {
	for i := 0; i < n; i++ {
		rec := f.Begin(cs, 0, 1)
		clk.advance(500)
		f.Timeout(cs, 0, rec)
	}
}

func eventsByRule(events []Event, rule string) []Event {
	var out []Event
	for _, e := range events {
		if e.Rule == rule {
			out = append(out, e)
		}
	}
	return out
}

// TestCallsiteStormRule checks that the callsite-scoped storm rule
// names exactly the degrading callsite, leaving its healthy neighbour
// alone.
func TestCallsiteStormRule(t *testing.T) {
	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	stormy := f.Callsite("storm.path")
	healthy := f.Callsite("healthy.path")

	m := New(nil, Options{Flight: f})
	m.Tick() // baseline

	clk.advance(1e9)
	driveCalls(f, stormy, clk, 10)
	driveTimeouts(f, stormy, clk, 10)
	driveCalls(f, healthy, clk, 20)
	m.Tick()

	storms := eventsByRule(m.Events(), "callsite-storm")
	if len(storms) != 1 {
		t.Fatalf("want exactly 1 callsite-storm event, got %d: %+v", len(storms), storms)
	}
	e := storms[0]
	if !strings.Contains(e.Diagnosis, `"storm.path"`) {
		t.Fatalf("diagnosis does not name the stormy callsite: %q", e.Diagnosis)
	}
	if strings.Contains(e.Diagnosis, "healthy.path") {
		t.Fatalf("diagnosis blames the healthy callsite: %q", e.Diagnosis)
	}
	// 10 of 20 attempts timed out: past the 25% critical threshold.
	if e.Severity != Critical {
		t.Fatalf("severity = %v, want Critical", e.Severity)
	}
	if e.Value < 0.49 || e.Value > 0.51 {
		t.Fatalf("storm rate = %v, want ~0.5", e.Value)
	}
}

// TestCallsiteStormRuleIntervalScoped checks that the rule diffs
// consecutive samples: a past storm that has stopped must not re-fire
// off the cumulative counters.
func TestCallsiteStormRuleIntervalScoped(t *testing.T) {
	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	cs := f.Callsite("recovered.path")

	m := New(nil, Options{Flight: f})
	m.Tick()
	clk.advance(1e9)
	driveTimeouts(f, cs, clk, 20)
	m.Tick() // storm fires here
	before := len(eventsByRule(m.Events(), "callsite-storm"))
	if before != 1 {
		t.Fatalf("want 1 storm event after the storm interval, got %d", before)
	}

	clk.advance(1e9)
	driveCalls(f, cs, clk, 50) // clean interval
	m.Tick()
	if after := len(eventsByRule(m.Events(), "callsite-storm")); after != before {
		t.Fatalf("clean interval re-fired the storm rule: %d -> %d events", before, after)
	}
}

// TestCallsiteSpinWasteRule checks that attributed wasted spin on a
// rare callsite raises the demotion warning.
func TestCallsiteSpinWasteRule(t *testing.T) {
	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	cold := f.Callsite("cold.poll")

	var polls atomic.Uint64
	f.SetOccupancySource(func() (uint64, uint64) { return polls.Load(), 0 })

	m := New(nil, Options{Flight: f})
	m.Tick() // baseline, primes the digest window

	clk.advance(10e9) // 10s: 2 arrivals -> 0.2/s EWMA, under the 1/s cap
	driveCalls(f, cold, clk, 2)
	polls.Store(50000)
	m.Tick()

	wastes := eventsByRule(m.Events(), "callsite-spin-waste")
	if len(wastes) != 1 {
		t.Fatalf("want exactly 1 callsite-spin-waste event, got %d: %+v", len(wastes), wastes)
	}
	e := wastes[0]
	if !strings.Contains(e.Diagnosis, `"cold.poll"`) {
		t.Fatalf("diagnosis does not name the cold callsite: %q", e.Diagnosis)
	}
	if e.Value < 49000 {
		t.Fatalf("attributed waste = %v, want ~50000", e.Value)
	}
}

// TestCallsiteSpinWasteSparesBusyCallsite checks the rate cap: a busy
// callsite sharing the fabric is not the demotion candidate even when
// waste is attributed to it.
func TestCallsiteSpinWasteSparesBusyCallsite(t *testing.T) {
	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	busy := f.Callsite("busy.path")

	var polls atomic.Uint64
	f.SetOccupancySource(func() (uint64, uint64) { return polls.Load(), 0 })

	m := New(nil, Options{Flight: f})
	m.Tick()
	clk.advance(1e9)
	driveCalls(f, busy, clk, 1000) // 1000/s, far over the 1/s cap
	polls.Store(50000)
	m.Tick()

	if wastes := eventsByRule(m.Events(), "callsite-spin-waste"); len(wastes) != 0 {
		t.Fatalf("busy callsite flagged as waste candidate: %+v", wastes)
	}
}

// TestRenderTextGaugeUnitsAndCallsites checks the fixed header line
// (gauges with units, pool occupancy) and the per-callsite section.
func TestRenderTextGaugeUnitsAndCallsites(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricEPCResident).Set(128)
	reg.Gauge(telemetry.MetricPoolResponders).Set(2)
	reg.Gauge(telemetry.MetricPoolRespondersMax).Set(8)
	reg.Gauge(telemetry.MetricPoolOccupancyMilli).Set(413)

	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	cs := f.Callsite("mc.get")

	m := New(reg, Options{Flight: f})
	m.Tick()
	clk.advance(1e9)
	driveCalls(f, cs, clk, 8)
	m.Tick()

	out := m.RenderText(5)
	for _, want := range []string{
		"epc 128 pages",
		"pool 2/8 responders",
		"occupancy 0.413",
		"callsites:",
		"mc.get",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderText missing %q:\n%s", want, out)
		}
	}
}

// TestRenderTextNoPoolNoCallsites checks that the pool clause and the
// callsite section stay absent when neither a fabric nor a recorder is
// attached.
func TestRenderTextNoPoolNoCallsites(t *testing.T) {
	m := New(telemetry.New(), Options{})
	m.Tick()
	out := m.RenderText(5)
	if strings.Contains(out, "pool ") || strings.Contains(out, "callsites:") {
		t.Fatalf("unattached monitor rendered pool/callsite sections:\n%s", out)
	}
	if !strings.Contains(out, "epc 0 pages") {
		t.Fatalf("gauge unit missing from header:\n%s", out)
	}
}

// TestMuxFlightEndpoint checks that Mux serves /debug/flight exactly
// when a recorder is attached.
func TestMuxFlightEndpoint(t *testing.T) {
	clk := newFlightClock()
	f := flight.New(flight.Options{Now: clk.now, SampleEvery: 1})
	f.Bind(1)
	driveCalls(f, f.Callsite("mc.get"), clk, 4)

	reg := telemetry.New()
	withFlight := httptest.NewServer(Mux(reg, New(reg, Options{Flight: f})))
	defer withFlight.Close()
	resp, err := http.Get(withFlight.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight status = %d, want 200", resp.StatusCode)
	}
	var dump struct {
		Callsites []flight.CallsiteStats `json:"callsites"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode /debug/flight: %v", err)
	}
	if len(dump.Callsites) != 1 || dump.Callsites[0].Name != "mc.get" {
		t.Fatalf("unexpected callsite table: %+v", dump.Callsites)
	}

	without := httptest.NewServer(Mux(reg, New(reg, Options{})))
	defer without.Close()
	resp2, err := http.Get(without.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/flight without recorder status = %d, want 404", resp2.StatusCode)
	}
}
