package monitor

import (
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

// driveCalls runs n complete calls of d ns each through the recorder on
// shard 0.
func driveCalls(f *flight.Recorder, cs flight.Callsite, clk *flightClock, n int, d uint64) {
	for i := 0; i < n; i++ {
		var rec *flight.Record
		if f.Arrive(cs, 0) {
			rec = f.Open(cs, 0, 1)
		}
		clk.advance(d)
		f.Complete(rec)
	}
}

// TestRenderTextGaugeUnitsAndCallsites checks the fixed header line
// (gauges with units, pool occupancy) with a recorder attached, that
// the text does not repeat the recorder's per-callsite table, and that
// a tick digests the recorder: the digest publishes the tail cutoff,
// without which no call is retained as an outlier.
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
	early := f.Callsite("mc.set")

	m := New(reg, Options{Flight: f})
	m.Tick()
	clk.advance(1e9)
	driveCalls(f, cs, clk, 8, 500)
	// Before a tick digests a callsite's calls it has no cutoff, and a
	// straggler is not retained (Outliers itself does not digest).  A
	// second callsite keeps this straggler out of mc.get's p99.
	driveCalls(f, early, clk, 1, 10_000_000)
	if n := len(f.Outliers(8)); n != 0 {
		t.Fatalf("outliers before the tick digested = %d, want 0", n)
	}
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

	// The tick's digest set the cutoff: a 10 ms straggler, above the
	// recorder's 1 ms floor, is now retained.
	driveCalls(f, cs, clk, 1, 10_000_000)
	if n := len(f.Outliers(8)); n != 1 {
		t.Fatalf("outliers after the tick digested = %d, want 1", n)
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
