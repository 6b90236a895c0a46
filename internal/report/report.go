// Package report assembles the paper-fidelity report (REPORT.md and
// report.json): the full measurement plan of the paper re-run through the
// high-resolution distribution recorder, rendered with CDF plots, and
// gated against the paper's published numbers under the tolerance
// policies of internal/regress.  cmd/hotreport is the front end.
//
// The package sits above internal/bench (measurement) and
// internal/regress (comparison) because regress itself imports bench:
// the fidelity diff cannot live in either without a cycle.
package report

import (
	"hotcalls/internal/bench"
	"hotcalls/internal/regress"
)

// Report is one finished report run: the measured data plus the fidelity
// comparison against the paper.
type Report struct {
	Data     *bench.ReportData
	Fidelity *regress.Result
}

// Build runs the measurement plan and the fidelity comparison.  Output is
// a pure function of cfg: same config, same bytes (the determinism test
// in report_test.go pins this).
func Build(cfg bench.ReportConfig) *Report {
	data := bench.CollectReport(cfg)
	base, cand := data.FidelityPair()
	return &Report{
		Data:     data,
		Fidelity: regress.Compare(base, cand, regress.PaperFidelityPolicy()),
	}
}

// FidelityOK reports whether every compared metric landed within its
// tolerance — the bit cmd/hotreport turns into its exit status.
func (r *Report) FidelityOK() bool { return len(r.Fidelity.Failures()) == 0 }
