package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBuildJSONReport feeds synthetic reports shaped like table1/fig3 and
// checks the summary extraction and speedup arithmetic.
func TestBuildJSONReport(t *testing.T) {
	reports := []*Report{
		{ID: "table1", Title: "Table 1", Values: []Value{
			{Name: "Ecall (warm cache)", Got: 8640, Paper: 8640, Unit: "cycles"},
			{Name: "Ocall (warm cache)", Got: 8314, Paper: 8314, Unit: "cycles"},
		}},
		{ID: "fig3", Title: "Figure 3", Values: []Value{
			{Name: "hotcall median", Got: 576, Paper: 620, Unit: "cycles"},
		}},
	}
	out := BuildJSONReport(reports)

	if out.Schema != "hotcalls-bench/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if out.Summary.EcallWarmMedianCycles != 8640 || out.Summary.OcallWarmMedianCycles != 8314 {
		t.Fatalf("summary medians = %+v", out.Summary)
	}
	if out.Summary.HotCallMedianCycles != 576 {
		t.Fatalf("hotcall median = %v", out.Summary.HotCallMedianCycles)
	}
	if got, want := out.Summary.HotCallVsEcallSpeedup, 8640.0/576; got != want {
		t.Fatalf("ecall speedup = %v, want %v", got, want)
	}
	if got, want := out.Summary.HotCallVsOcallSpeedup, 8314.0/576; got != want {
		t.Fatalf("ocall speedup = %v, want %v", got, want)
	}
	if len(out.Experiments) != 2 || len(out.Experiments[0].Values) != 2 {
		t.Fatalf("experiments = %+v", out.Experiments)
	}
	if dev := out.Experiments[1].Values[0].DeviationPct; dev == 0 {
		t.Fatal("deviation not computed for a value with a paper number")
	}
}

// TestWriteJSONReport checks the artifact is valid, indented JSON that
// round-trips through the standard decoder, and carries nothing that
// changes between two writes of the same reports.
func TestWriteJSONReport(t *testing.T) {
	reports := []*Report{
		{ID: "table1", Title: "Table 1", Values: []Value{
			{Name: "Ecall (warm cache)", Got: 8640, Paper: 8640, Unit: "cycles"},
		}},
	}
	var sb strings.Builder
	if err := WriteJSONReport(&sb, reports); err != nil {
		t.Fatal(err)
	}
	var decoded JSONReport
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if decoded.Schema != "hotcalls-bench/v1" || decoded.GOARCH == "" {
		t.Fatalf("missing artifact header: %+v", decoded)
	}
	if !strings.Contains(sb.String(), "\n  ") {
		t.Fatal("output is not indented")
	}
	var again strings.Builder
	if err := WriteJSONReport(&again, reports); err != nil {
		t.Fatal(err)
	}
	if again.String() != sb.String() {
		t.Fatalf("two writes of the same reports differ:\n%s\n%s", sb.String(), again.String())
	}
}

// artifactDiff is the exact gate's failure text: one line per key whose
// committed value differs from the fresh run's, sorted by key, after one
// line for a committed schema this tree does not write.  A key is
// summary/<field> or <experiment>/<value>; a value compares whole (got,
// paper, unit, deviation) to its last digit, and the header — goos,
// goarch, frequency, run count — and the titles compare not at all.
func artifactDiff(committed, fresh JSONReport) []string {
	var lines []string
	was, now := artifactValues(committed), artifactValues(fresh)
	for key, v := range was {
		if nv, ok := now[key]; !ok {
			lines = append(lines, fmt.Sprintf("%s: committed %s, no longer reported", key, v))
		} else if nv != v {
			lines = append(lines, fmt.Sprintf("%s: committed %s, fresh %s", key, v, nv))
		}
	}
	for key, v := range now {
		if _, ok := was[key]; !ok {
			lines = append(lines, fmt.Sprintf("%s: not committed, fresh %s", key, v))
		}
	}
	sort.Strings(lines)
	if committed.Schema != fresh.Schema {
		lines = append([]string{fmt.Sprintf("schema: committed %q, fresh %q", committed.Schema, fresh.Schema)}, lines...)
	}
	return lines
}

// artifactValues flattens an artifact to key → value rendered with the
// shortest digits that round-trip, so a one-ulp move shows.  A zero
// summary field is absent, as it is from the file.
func artifactValues(r JSONReport) map[string]string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	out := map[string]string{}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ecall_warm_median_cycles", r.Summary.EcallWarmMedianCycles},
		{"ocall_warm_median_cycles", r.Summary.OcallWarmMedianCycles},
		{"hotcall_median_cycles", r.Summary.HotCallMedianCycles},
		{"hotcall_vs_ecall_speedup", r.Summary.HotCallVsEcallSpeedup},
		{"hotcall_vs_ocall_speedup", r.Summary.HotCallVsOcallSpeedup},
	} {
		if f.v != 0 {
			out["summary/"+f.name] = num(f.v)
		}
	}
	for _, e := range r.Experiments {
		for _, v := range e.Values {
			s := num(v.Got) + " " + v.Unit
			if v.Paper != 0 || v.DeviationPct != 0 {
				s += fmt.Sprintf(" (paper %s, deviation %s%%)", num(v.Paper), num(v.DeviationPct))
			}
			out[e.ID+"/"+v.Name] = s
		}
	}
	return out
}

// TestCommittedBaselineParses checks the committed BENCH_hotcalls.json on
// any architecture: it decodes under this tree's schema, flattens to a
// useful number of keys, and shows no difference from itself.
func TestCommittedBaselineParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotcalls.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r JSONReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("committed baseline does not parse: %v", err)
	}
	if r.Schema != "hotcalls-bench/v1" || r.GOARCH == "" {
		t.Fatalf("committed baseline header = %q on %q", r.Schema, r.GOARCH)
	}
	if keys := artifactValues(r); len(keys) < 10 {
		t.Fatalf("baseline flattened to %d keys, want >= 10", len(keys))
	}
	if lines := artifactDiff(r, r); len(lines) > 0 {
		t.Fatalf("baseline differs from itself:\n%s", strings.Join(lines, "\n"))
	}
}

// TestArtifactDiff checks the gate's failure text on synthetic artifacts:
// each kind of staleness is exactly one line naming its key, and a
// difference in nothing but the header is none.
func TestArtifactDiff(t *testing.T) {
	base := func() JSONReport {
		return BuildJSONReport([]*Report{
			{ID: "table1", Title: "Table 1", Values: []Value{
				{Name: "Ecall (warm cache)", Got: 8640, Paper: 8640, Unit: "cycles"},
				{Name: "Ocall (warm cache)", Got: 8314, Paper: 8314, Unit: "cycles"},
			}},
			{ID: "fig3", Title: "Figure 3", Values: []Value{
				{Name: "hotcall median", Got: 554, Paper: 620, Unit: "cycles"},
			}},
			{ID: "fig10", Title: "Figure 10", Values: []Value{
				{Name: "memcached hotcalls", Got: 157914.25, Unit: "req/s"},
			}},
		})
	}
	cases := []struct {
		name  string
		edit  func(r *JSONReport)
		lines []string // each wanted line's prefix, in order
	}{
		{"identical", func(*JSONReport) {}, nil},
		{"header", func(r *JSONReport) {
			r.GOOS, r.GOARCH, r.FrequencyHz, r.MicroRuns = "plan9", "mips", 1, 1
			r.Experiments[0].Title = "renamed"
		}, nil},
		{"one-ulp-up", func(r *JSONReport) {
			v := &r.Experiments[2].Values[0].Got
			*v = math.Nextafter(*v, math.Inf(1))
		}, []string{"fig10/memcached hotcalls: committed 157914.25000000003 req/s, fresh 157914.25 req/s"}},
		{"one-ulp-down", func(r *JSONReport) {
			v := &r.Experiments[2].Values[0].Got
			*v = math.Nextafter(*v, math.Inf(-1))
		}, []string{"fig10/memcached hotcalls: committed 157914.24999999997 req/s, fresh 157914.25 req/s"}},
		{"from-zero", func(r *JSONReport) { r.Experiments[2].Values[0].Got = 0 }, []string{"fig10/memcached hotcalls: committed 0 req/s, fresh 157914.25 req/s"}},
		{"unit", func(r *JSONReport) { r.Experiments[2].Values[0].Unit = "req/ms" }, []string{"fig10/memcached hotcalls: committed 157914.25 req/ms, fresh 157914.25 req/s"}},
		{"added", func(r *JSONReport) {
			r.Experiments[1].Values = r.Experiments[1].Values[:0]
		}, []string{"fig3/hotcall median: not committed, fresh 554 cycles (paper 620, deviation"}},
		{"removed", func(r *JSONReport) {
			r.Experiments = append(r.Experiments, JSONExperiment{ID: "fig9", Values: []JSONValue{{Name: "gone", Got: 1, Unit: "x"}}})
		}, []string{"fig9/gone: committed 1 x, no longer reported"}},
		{"summary", func(r *JSONReport) { r.Summary.HotCallMedianCycles *= 1.10 }, []string{"summary/hotcall_median_cycles: committed 609.4000000000001, fresh 554"}},
		{"schema", func(r *JSONReport) { r.Schema = "hotcalls-bench/v0" }, []string{`schema: committed "hotcalls-bench/v0", fresh "hotcalls-bench/v1"`}},
		{"sorted-by-key", func(r *JSONReport) {
			r.Summary.EcallWarmMedianCycles++
			r.Experiments[0].Values[1].Got++
			r.Experiments[0].Values[0].Got++
		}, []string{"summary/ecall_warm_median_cycles:", "table1/Ecall (warm cache):", "table1/Ocall (warm cache):"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			committed := base()
			c.edit(&committed)
			got := artifactDiff(committed, base())
			if len(got) != len(c.lines) {
				t.Fatalf("%d lines, want %d:\n%s", len(got), len(c.lines), strings.Join(got, "\n"))
			}
			for i, want := range c.lines {
				if !strings.HasPrefix(got[i], want) {
					t.Errorf("line %d = %q, want it to start %q", i, got[i], want)
				}
			}
		})
	}
}
