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

// TestRenderTextGaugeUnitsAndCallsites checks the fixed header line
// (gauges with units, pool occupancy) with a recorder attached, and what
// the monitor does with the recorder's callsites: each tick digests
// them, and its text leaves the per-callsite table to /debug/flight.
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
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderText missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mc.get") {
		t.Fatalf("RenderText repeats the flight callsite table:\n%s", out)
	}
	if f.Digested() != 8 {
		t.Fatalf("the tick digested %d records, want 8", f.Digested())
	}
}

// TestRenderTextNoPoolNoCallsites checks that the pool clause stays
// absent when neither a fabric nor a recorder is attached.
func TestRenderTextNoPoolNoCallsites(t *testing.T) {
	m := New(telemetry.New(), Options{})
	m.Tick()
	out := m.RenderText(5)
	if strings.Contains(out, "pool ") {
		t.Fatalf("unattached monitor rendered the pool clause:\n%s", out)
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
