// Package regress is the exact gate over hotcalls-bench/v1 artifacts
// (`make bench-regress`, cmd/benchdiff): it diffs a fresh run against the
// committed BENCH_hotcalls.json metric by metric.  That artifact holds
// only quantities that repeat exactly — simulated cycles, deterministic
// counts — so there is no noise for a band to absorb: any changed, added
// or removed metric fails until the baseline is regenerated in the same
// commit.  Paper fidelity is internal/bench's business, and wall-clock
// performance is benchmarks/'s.
package regress

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"hotcalls/internal/bench"
)

// Schema is the artifact schema this differ understands.
const Schema = "hotcalls-bench/v1"

// Class is the verdict for one metric.
type Class int

const (
	// Unchanged: equal.
	Unchanged Class = iota
	// Changed: moved, in either direction — a faster number is as stale
	// a baseline as a slower one.
	Changed
	// Added: present only in the candidate.
	Added
	// Removed: present only in the baseline — a silently vanished
	// metric is how a trajectory goes dead.
	Removed
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Unchanged:
		return "unchanged"
	case Changed:
		return "changed"
	case Added:
		return "added"
	case Removed:
		return "removed"
	}
	return "unknown"
}

// Delta is one metric's comparison.
type Delta struct {
	Key        string // "<experiment id>/<value name>" or "summary/<field>"
	Unit       string
	Base, Cand float64
	ChangePct  float64 // signed (cand-base)/base*100; 0 when base is 0
	Class      Class
}

// Result is a whole comparison: every metric's delta plus the gate
// verdict.
type Result struct {
	BaseMeta, CandMeta Meta
	Deltas             []Delta
}

// Meta is the artifact metadata carried into the report header.  It is
// displayed, never compared: two runs of one tree differ in it.
type Meta struct {
	GeneratedAt string
	GoVersion   string
	MicroRuns   int
}

// metaOf extracts report metadata.
func metaOf(r bench.JSONReport) Meta {
	return Meta{GeneratedAt: r.GeneratedAt, GoVersion: r.GoVersion, MicroRuns: r.MicroRuns}
}

// Parse decodes and validates a hotcalls-bench/v1 artifact.
func Parse(data []byte) (bench.JSONReport, error) {
	var r bench.JSONReport
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("regress: bad JSON: %w", err)
	}
	if r.Schema != Schema {
		return r, fmt.Errorf("regress: schema %q, want %q", r.Schema, Schema)
	}
	return r, nil
}

// flatten turns a report into key → (value, unit) in deterministic
// order: the summary block first, then per-experiment values.
func flatten(r bench.JSONReport) (keys []string, vals map[string]float64, units map[string]string) {
	vals = make(map[string]float64)
	units = make(map[string]string)
	put := func(key string, v float64, unit string) {
		if _, dup := vals[key]; dup {
			return // first occurrence wins on duplicate names
		}
		keys = append(keys, key)
		vals[key] = v
		units[key] = unit
	}
	for _, s := range [...]struct {
		name string
		v    float64
		unit string
	}{
		{"summary/ecall_warm_median_cycles", r.Summary.EcallWarmMedianCycles, "cycles"},
		{"summary/ocall_warm_median_cycles", r.Summary.OcallWarmMedianCycles, "cycles"},
		{"summary/hotcall_median_cycles", r.Summary.HotCallMedianCycles, "cycles"},
		{"summary/hotcall_vs_ecall_speedup", r.Summary.HotCallVsEcallSpeedup, "x"},
		{"summary/hotcall_vs_ocall_speedup", r.Summary.HotCallVsOcallSpeedup, "x"},
	} {
		if s.v != 0 {
			put(s.name, s.v, s.unit)
		}
	}
	for _, e := range r.Experiments {
		for _, v := range e.Values {
			put(e.ID+"/"+v.Name, v.Got, v.Unit)
		}
	}
	return keys, vals, units
}

// Compare diffs a candidate run against the baseline, value for value.
func Compare(base, cand bench.JSONReport) *Result {
	res := &Result{BaseMeta: metaOf(base), CandMeta: metaOf(cand)}
	baseKeys, baseVals, baseUnits := flatten(base)
	candKeys, candVals, candUnits := flatten(cand)

	seen := make(map[string]bool)
	for _, key := range baseKeys {
		seen[key] = true
		d := Delta{Key: key, Unit: baseUnits[key], Base: baseVals[key]}
		cv, ok := candVals[key]
		if !ok {
			d.Class = Removed
			res.Deltas = append(res.Deltas, d)
			continue
		}
		d.Cand = cv
		if d.Base != 0 {
			d.ChangePct = (d.Cand - d.Base) / d.Base * 100
		}
		if d.Cand != d.Base {
			d.Class = Changed
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, key := range candKeys {
		if !seen[key] {
			res.Deltas = append(res.Deltas, Delta{Key: key, Unit: candUnits[key], Cand: candVals[key], Class: Added})
		}
	}
	return res
}

// Failures returns the deltas that fail the gate — changed, added, or
// removed — largest relative change first.
func (r *Result) Failures() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Class != Unchanged {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].ChangePct) > math.Abs(out[j].ChangePct)
	})
	return out
}

// Failed reports whether the gate should exit non-zero.
func (r *Result) Failed() bool { return len(r.Failures()) > 0 }

// Counts returns per-class totals for the report summary line.
func (r *Result) Counts() map[Class]int {
	out := make(map[Class]int)
	for _, d := range r.Deltas {
		out[d.Class]++
	}
	return out
}

// Summary is the one-line human verdict.
func (r *Result) Summary() string {
	c := r.Counts()
	verdict := "PASS"
	if r.Failed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: %d metrics compared — %d changed, %d unchanged, %d added, %d removed",
		verdict, len(r.Deltas), c[Changed], c[Unchanged], c[Added], c[Removed])
}

// sanitizeCell escapes the characters that would break a markdown table
// cell (the bench value names contain no pipes today, but the report
// must not corrupt if one appears).
func sanitizeCell(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
