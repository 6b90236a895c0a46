package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"hotcalls/internal/telemetry"
)

// TestHarnessTelemetry exercises the -metrics / -trace wiring end to end
// on a small measurement run: fixtures built after SetTelemetry must feed
// the registry, and both exporters must emit well-formed output carrying
// the standard boundary metrics.
func TestHarnessTelemetry(t *testing.T) {
	reg := telemetry.New()
	reg.EnableTracing(1 << 12)
	SetTelemetry(reg)
	defer SetTelemetry(nil)

	f := newMicroFixture(901)
	f.measureEcall("ecall_empty", 50, nil)
	f.measureOcall("ocall_empty", 50, nil)

	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricEcalls]; got == 0 {
		t.Error("measurement run recorded no ecalls")
	}
	if got := snap.Counters[telemetry.MetricEEnter]; got == 0 {
		t.Error("measurement run recorded no EENTERs")
	}
	if got := snap.Counters[telemetry.MetricOcalls]; got == 0 {
		t.Error("measurement run recorded no ocalls")
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		telemetry.MetricEcalls, telemetry.MetricOcalls,
		telemetry.MetricHotECalls, telemetry.MetricHotCallRequests,
		telemetry.MetricHotCallCycles + "_count",
	} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("Prometheus dump missing %q", name)
		}
	}

	var trace strings.Builder
	if err := reg.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace carries no complete spans")
	}

	// Guard against accidental cross-experiment bleed: fixtures built
	// after detaching must leave the registry untouched.
	before := reg.Snapshot().Counters[telemetry.MetricEcalls]
	SetTelemetry(nil)
	f2 := newMicroFixture(903)
	f2.measureEcall("ecall_empty", 10, nil)
	if after := reg.Snapshot().Counters[telemetry.MetricEcalls]; after != before {
		t.Errorf("detached harness still fed the registry: %d -> %d", before, after)
	}
}

// TestHarnessTelemetryNilSafe: experiments must run identically with no
// registry attached.
func TestHarnessTelemetryNilSafe(t *testing.T) {
	SetTelemetry(nil)
	f := newMicroFixture(905)
	s := f.measureEcall("ecall_empty", 20, nil)
	if s.Median() == 0 {
		t.Error("measurement broken with telemetry detached")
	}
}
