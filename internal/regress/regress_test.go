package regress

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotcalls/internal/bench"
)

// fixtureReport builds a small deterministic hotcalls-bench/v1 report.
func fixtureReport() bench.JSONReport {
	return bench.JSONReport{
		Schema:      Schema,
		GeneratedAt: "2026-08-05T00:00:00Z",
		GoVersion:   "go1.24.0",
		GOOS:        "linux",
		GOARCH:      "amd64",
		MicroRuns:   20000,
		Summary: bench.JSONSummary{
			EcallWarmMedianCycles: 8640,
			OcallWarmMedianCycles: 8314,
			HotCallMedianCycles:   553,
			HotCallVsEcallSpeedup: 15.62,
			HotCallVsOcallSpeedup: 15.03,
		},
		Experiments: []bench.JSONExperiment{
			{ID: "table1", Title: "Table 1", Values: []bench.JSONValue{
				{Name: "Ecall (warm cache)", Got: 8640, Unit: "cycles"},
				{Name: "Ocall (warm cache)", Got: 8314, Unit: "cycles"},
			}},
			{ID: "fig7", Title: "Fig 7", Values: []bench.JSONValue{
				{Name: "memcached hotcalls", Got: 410000, Unit: "req/s"},
			}},
			{ID: "loadcurve", Title: "Load curve", Values: []bench.JSONValue{
				{Name: "peak throughput", Got: 500000, Unit: "req/s"},
			}},
		},
	}
}

func mustMarshal(t *testing.T, r bench.JSONReport) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseValidatesSchema(t *testing.T) {
	r := fixtureReport()
	if _, err := Parse(mustMarshal(t, r)); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	r.Schema = "hotcalls-bench/v2"
	if _, err := Parse(mustMarshal(t, r)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := Parse([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestCommittedBaselineParses pins the committed artifact to the schema
// the differ understands: if BENCH_hotcalls.json drifts, the gate must
// fail loudly at parse time, not silently compare nothing.
func TestCommittedBaselineParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotcalls.json"))
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	r, err := Parse(data)
	if err != nil {
		t.Fatalf("committed baseline does not parse: %v", err)
	}
	keys, _, _ := flatten(r)
	if len(keys) < 10 {
		t.Fatalf("baseline flattened to %d metrics, want >= 10", len(keys))
	}
	res := Compare(r, r)
	if res.Failed() {
		t.Fatalf("baseline vs itself failed the gate: %s", res.Summary())
	}
}

func TestIdenticalRunsPass(t *testing.T) {
	base := fixtureReport()
	res := Compare(base, base)
	if res.Failed() {
		t.Fatalf("identical runs failed: %s", res.Summary())
	}
	for _, d := range res.Deltas {
		if d.Class != Unchanged {
			t.Fatalf("%s classified %s, want unchanged", d.Key, d.Class)
		}
	}
}

// TestWarmHotCallSlowdownFailsGate injects a synthetic 10% slowdown into
// the warm-HotCall metric and asserts the gate fails with a report
// naming that metric.
func TestWarmHotCallSlowdownFailsGate(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.Summary.HotCallMedianCycles *= 1.10

	res := Compare(base, cand)
	if !res.Failed() {
		t.Fatalf("10%% warm-HotCall slowdown passed the gate: %s", res.Summary())
	}
	fails := res.Failures()
	if len(fails) != 1 {
		t.Fatalf("failures = %d, want exactly 1: %+v", len(fails), fails)
	}
	d := fails[0]
	if d.Key != "summary/hotcall_median_cycles" {
		t.Fatalf("failing metric = %q, want summary/hotcall_median_cycles", d.Key)
	}
	if d.Class != Changed {
		t.Fatalf("bad classification: %+v", d)
	}
	if d.ChangePct < 9.9 || d.ChangePct > 10.1 {
		t.Fatalf("change = %.2f%%, want ~+10%%", d.ChangePct)
	}

	var buf bytes.Buffer
	if err := res.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	if !strings.Contains(report, "FAIL") {
		t.Fatalf("report lacks FAIL verdict:\n%s", report)
	}
	if !strings.Contains(report, "summary/hotcall_median_cycles") {
		t.Fatalf("report does not name the regressed metric:\n%s", report)
	}
	if !strings.Contains(report, "## Gate failures") {
		t.Fatalf("report lacks a failures section:\n%s", report)
	}
}

// TestExactPolicyFailsOnLastDigit: the gate is an exact diff.  One ulp
// on one value fails it, in either direction — a faster number is as
// stale a baseline as a slower one — and nothing else does.
func TestExactPolicyFailsOnLastDigit(t *testing.T) {
	base := fixtureReport()
	for _, toward := range []float64{math.Inf(1), math.Inf(-1)} {
		cand := fixtureReport()
		v := &cand.Experiments[1].Values[0].Got
		*v = math.Nextafter(*v, toward)
		res := Compare(base, cand)
		fails := res.Failures()
		if len(fails) != 1 || fails[0].Key != "fig7/memcached hotcalls" || fails[0].Class != Changed {
			t.Fatalf("one-ulp move toward %v not gated: %+v", toward, fails)
		}
	}
}

// TestMetadataHeaderIgnored: two runs of one tree differ in their
// timestamp and may differ in toolchain; neither is a metric.
func TestMetadataHeaderIgnored(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.GeneratedAt = "2026-10-01T12:00:00Z"
	cand.GoVersion = "go1.99.0"
	if res := Compare(base, cand); res.Failed() {
		t.Fatalf("metadata difference failed the gate: %s", res.Summary())
	}
}

// TestRemovedMetricGates: a metric that silently vanishes from the
// candidate must fail the gate.
func TestRemovedMetricGates(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.Experiments = cand.Experiments[:2] // drop loadcurve
	res := Compare(base, cand)
	if !res.Failed() {
		t.Fatalf("removed metric passed the gate: %s", res.Summary())
	}
	fails := res.Failures()
	if len(fails) != 1 || fails[0].Class != Removed || fails[0].Key != "loadcurve/peak throughput" {
		t.Fatalf("removed metric not gated: %+v", fails)
	}
}

// TestAddedMetricGates: a metric the committed baseline does not carry
// means the baseline was not regenerated with the change that added it.
func TestAddedMetricGates(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.Experiments = append(cand.Experiments, bench.JSONExperiment{
		ID: "fig9", Values: []bench.JSONValue{{Name: "lighttpd hotcalls", Got: 61000, Unit: "req/s"}},
	})
	res := Compare(base, cand)
	fails := res.Failures()
	if len(fails) != 1 || fails[0].Class != Added || fails[0].Key != "fig9/lighttpd hotcalls" {
		t.Fatalf("added metric not gated: %+v", fails)
	}
}

func TestRegressionsSortedWorstFirst(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.Summary.HotCallMedianCycles *= 1.05   // +5%
	cand.Summary.EcallWarmMedianCycles *= 1.50 // +50%
	res := Compare(base, cand)
	fails := res.Failures()
	if len(fails) != 2 {
		t.Fatalf("failures = %d, want 2", len(fails))
	}
	if fails[0].Key != "summary/ecall_warm_median_cycles" {
		t.Fatalf("largest change not first: %+v", fails[0])
	}
}

func TestZeroBaseValue(t *testing.T) {
	base := fixtureReport()
	base.Experiments[0].Values[0].Got = 0
	cand := fixtureReport()
	// A zero baseline has no relative change to report (never a
	// div-by-zero): only equality holds it.
	for _, d := range Compare(base, cand).Deltas {
		if d.Key == "table1/Ecall (warm cache)" && (d.ChangePct != 0 || d.Class != Changed) {
			t.Fatalf("zero-base metric: change %v%%, class %s", d.ChangePct, d.Class)
		}
	}
	if res := Compare(base, base); res.Failed() {
		t.Fatalf("zero equals zero failed the gate: %s", res.Summary())
	}
}

func TestSanitizeCell(t *testing.T) {
	if got := sanitizeCell("a|b"); got != "a\\|b" {
		t.Fatalf("sanitizeCell = %q", got)
	}
}
