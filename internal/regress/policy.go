package regress

import "path"

// Policy says how far each metric may sit from its baseline, in either
// direction.  The first matching override wins, then the default.
type Policy struct {
	// DefaultTolerancePct is the allowed relative drift for metrics with
	// no override (percent, absolute value); 0 admits equality only.
	DefaultTolerancePct float64

	// Overrides are consulted in order; Pattern is a path.Match glob
	// against the metric key ("<experiment>/<name>" or
	// "summary/<field>").
	Overrides []Override
}

// Override sets the tolerance for metrics matching a glob.
type Override struct {
	Pattern      string
	TolerancePct float64
}

// DefaultPolicy is the exact diff of an artifact against the repo's own
// past: tolerance 0 and no overrides.  internal/bench reports only
// quantities that repeat exactly under a fixed seed, so there is no
// noise for a band to absorb, and a band would only let the committed
// baseline go stale unnoticed.
func DefaultPolicy() Policy { return Policy{} }

// PaperFidelityPolicy gates the hotreport fidelity section: every
// "fidelity/<metric>" key compares a measured value against the paper's
// published number, two-sided — drifting under the target is as much a
// calibration break as drifting over it.  Specific overrides come before
// the catch-all because resolution stops at the first match.
//
// Tolerances are calibrated from the seed's measured deviations (see
// EXPERIMENTS.md "Paper fidelity"): medians reproduce to within a few
// percent; the read-overhead sweep's mid-range points (4-16 KB) diverge
// structurally — the simulated MEE node cache has a sharper capacity
// knee than the real part — so they carry documented wide tolerances
// rather than an always-red gate.
func PaperFidelityPolicy() Policy {
	return Policy{
		DefaultTolerancePct: 10,
		Overrides: []Override{
			// Structural divergence: the Figure 6 mid-range (see
			// EXPERIMENTS.md "Known divergences").  The simulated MEE
			// node cache leaves its capacity knee at a sharper angle than
			// the real part, so the 4-16 KB points sit ~20% off and the
			// 32 KB endpoint ~14% (trajectory baseline: -21%/-19%/+22%/+14%).
			{Pattern: "fidelity/read_overhead_4kb_pct", TolerancePct: 45},
			{Pattern: "fidelity/read_overhead_8kb_pct", TolerancePct: 45},
			{Pattern: "fidelity/read_overhead_16kb_pct", TolerancePct: 30},
			{Pattern: "fidelity/read_overhead_32kb_pct", TolerancePct: 20},
			// The paper's "620 cycles in most cases" is the latency
			// model's p78, not its median (~553, -10.8% in the committed
			// trajectory baseline); the median-derived metrics inherit
			// that offset.  The Figure 3 tail gates as the paper states
			// it — fraction within 1,400 cycles — not as a p99.97 order
			// statistic, which is the top handful of samples and churns
			// across seeds.
			{Pattern: "fidelity/hotcall_median_cycles", TolerancePct: 15},
			{Pattern: "fidelity/hotcall_vs_*_speedup", TolerancePct: 15},
			// Write overhead is a small number (~6%), so relative drift
			// is amplified; the paper itself only claims "about 6%".
			{Pattern: "fidelity/write_overhead_*", TolerancePct: 40},
			// Everything else under fidelity/: calibrated medians,
			// HotCall latency, app throughput ratios.
			{Pattern: "fidelity/*", TolerancePct: 10},
		},
	}
}

// tolerance returns the relative band (percent) a metric key gates
// under.
func (p Policy) tolerance(key string) float64 {
	for _, o := range p.Overrides {
		if ok, err := path.Match(o.Pattern, key); err == nil && ok {
			return o.TolerancePct
		}
	}
	return p.DefaultTolerancePct
}
