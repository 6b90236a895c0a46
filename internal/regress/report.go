package regress

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteMarkdown renders the comparison as a markdown report: verdict,
// the failing metrics (largest change first), and the full metric
// table.  Output is deterministic for a fixed input pair, which is what
// the golden-file test pins.
func (r *Result) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# Bench regression report (hotcalls-bench/v1)\n\n")
	fmt.Fprintf(&b, "**%s**\n\n", r.Summary())
	fmt.Fprintf(&b, "| | baseline | candidate |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| generated | %s | %s |\n", r.BaseMeta.GeneratedAt, r.CandMeta.GeneratedAt)
	fmt.Fprintf(&b, "| go | %s | %s |\n", r.BaseMeta.GoVersion, r.CandMeta.GoVersion)
	fmt.Fprintf(&b, "| micro runs | %d | %d |\n\n", r.BaseMeta.MicroRuns, r.CandMeta.MicroRuns)

	if fails := r.Failures(); len(fails) > 0 {
		b.WriteString("## Gate failures\n\n")
		writeDeltaTable(&b, fails)
	}

	b.WriteString("## All metrics\n\n")
	writeDeltaTable(&b, r.Deltas)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeDeltaTable renders one markdown table of deltas.
func writeDeltaTable(b *strings.Builder, deltas []Delta) {
	b.WriteString("| metric | unit | baseline | candidate | change | class |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, d := range deltas {
		var change string
		switch d.Class {
		case Added:
			change = "new"
		case Removed:
			change = "gone"
		default:
			change = fmt.Sprintf("%+.3g%%", d.ChangePct)
		}
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %s |\n",
			sanitizeCell(d.Key), sanitizeCell(d.Unit),
			fnum(d.Base), fnum(d.Cand), change, d.Class)
	}
	b.WriteString("\n")
}

// fnum renders a value in the shortest form that reads back to the same
// float64, so a last-digit difference — which the exact gate fails on —
// is visible in the table.
func fnum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
