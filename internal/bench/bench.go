// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation, each regenerating the same
// rows or series the paper reports and recording measured-vs-paper values.
// cmd/hotbench is the command-line front end; EXPERIMENTS.md, REPORT.md
// and BENCH_hotcalls.json are three renderings of one run of these
// reports.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"hotcalls/internal/sim"
)

// Value is one measured quantity compared against the paper.
type Value struct {
	Name  string
	Got   float64
	Paper float64 // 0 when the paper gives no number for this point
	Unit  string
}

// Deviation returns the relative deviation from the paper's value, or 0
// when the paper reports none.
func (v Value) Deviation() float64 {
	if v.Paper == 0 {
		return 0
	}
	return (v.Got - v.Paper) / v.Paper
}

// Report is one experiment's outcome: a rendered table plus the structured
// values.
type Report struct {
	ID      string
	Title   string
	Values  []Value
	Samples []NamedSample     // the distributions REPORT.md plots and tabulates
	Table   string            // rendered human-readable output
	CSV     map[string]string // optional raw series, filename -> content
}

// NamedSample is one measured distribution, under its REPORT.md series
// name.
type NamedSample struct {
	Name   string
	Sample *sim.Sample
}

// Sample returns the named distribution, or an empty one.
func (r *Report) Sample(name string) *sim.Sample {
	for _, s := range r.Samples {
		if s.Name == name {
			return s.Sample
		}
	}
	return new(sim.Sample)
}

// Value returns the named value's measurement, or 0.
func (r *Report) Value(name string) float64 {
	for _, v := range r.Values {
		if v.Name == name {
			return v.Got
		}
	}
	return 0
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Report
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the experiments in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, k := range []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "fig10", "fig11"} {
		if k == id {
			return i
		}
	}
	return 100
}

// Get returns the experiment with the given ID, or nil.
func Get(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(got, paper float64) string {
	if paper == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (got-paper)/paper*100)
}
