package bench

// The whatif experiment validates the causal what-if profiler and the
// shadow call-router end to end.
//
// Causal validation: for every cost-model component, the profiler's
// predicted throughput gain from a 10% virtual speedup is checked
// against the gain actually obtained by regenerating the workload with
// that component's cost scaled down 10% — the Coz experiment run both
// ways.  The workload generator forks one RNG stream per component, so
// the scaled run replays identical costs everywhere else and the
// comparison is exact up to the profiler's own model error.
//
// Routing validation: the estimator's per-callsite policy ordering is
// brute-force checked by discrete-event replay over a rate x service
// grid (the same OrderingAgreement sweep the unit tests gate at 95%),
// and a deliberately mis-routed callsite must be flagged with the
// right recommendation.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"hotcalls/internal/flight"
	"hotcalls/internal/profile"
	"hotcalls/internal/sim"
	"hotcalls/internal/whatif"
)

// whatIfJSONPath is where the experiment also writes the full what-if
// report (causal profile + routing snapshot) as JSON; empty skips the
// artifact.  Set via SetWhatIfJSON (hotbench's -whatif-json flag).
var whatIfJSONPath string

// SetWhatIfJSON directs the whatif experiment to also write its report
// artifact (the /debug/whatif JSON body) to the given path.
func SetWhatIfJSON(path string) { whatIfJSONPath = path }

const (
	// whatIfCalls per generated workload: enough that per-component
	// sample means sit well inside the 5% validation band.
	whatIfCalls = 20000
	// whatIfDelta is the virtual-speedup fraction under test.
	whatIfDelta = 0.10
)

// whatIfInterval builds one shadow-router interval: arrivals of the
// given per-second rate over 1s at the given service time.
func whatIfInterval(id int, site string, arrivals uint64, serviceNS uint64) flight.CallsiteStats {
	return flight.CallsiteStats{ID: id, Name: site, Arrivals: arrivals, ServiceP50NS: serviceNS}
}

// runWhatIf regenerates the causal-validation table and the routing
// checks.
func runWhatIf() *Report {
	r := &Report{ID: "whatif", Title: "What-if observatory (causal profiler validation + shadow-routing regret)"}

	// Causal validation: predicted vs applied, per component.
	model := whatif.DefaultModel()
	base := model.Generate(sim.NewRNG(42), whatIfCalls)
	prof := whatif.AnalyzeCausal(base, whatIfDelta)
	tbl := &table{header: []string{"component", "share", "predicted", "applied", "error"}}
	worstErr := 0.0
	for _, c := range prof.Components {
		var cat profile.Category
		for k := profile.Category(0); k < profile.NumCategories; k++ {
			if k.String() == c.Component {
				cat = k
			}
		}
		scaled := model.Scaled(cat, 1-whatIfDelta).Generate(sim.NewRNG(42), whatIfCalls)
		applied := 100 * (float64(base.TotalCycles())/float64(scaled.TotalCycles()) - 1)
		relErr := math.Abs(c.PredictedDeltaPct-applied) / applied
		if relErr > worstErr {
			worstErr = relErr
		}
		tbl.add(c.Component, fmt.Sprintf("%.3f", c.Share),
			fmt.Sprintf("+%.3f%%", c.PredictedDeltaPct),
			fmt.Sprintf("+%.3f%%", applied),
			fmt.Sprintf("%.2f%%", relErr*100))
	}
	// Gated as an agreement fraction (1.0 = profiler exactly matches the
	// applied speedup; the tests assert every component within 5%).
	r.Values = append(r.Values, Value{Name: "causal-agreement", Got: 1 - worstErr, Unit: "frac"})

	// Routing validation 1: estimator vs brute-force replay ordering.
	agree := whatif.OrderingAgreement(whatif.CostParams{}, []uint64{0, 7, 42, 123}, 2)
	r.Values = append(r.Values, Value{Name: "ordering-agreement", Got: agree.Fraction(), Unit: "frac"})

	// Routing validation 2: a mis-routed callsite — hot-regime traffic
	// statically declared sync — must be flagged with the right
	// recommendation and positive regret.
	obs := whatif.NewObservatory(whatif.CostParams{})
	obs.SetCausal(prof)
	obs.Router().Declare("demo.misroute", whatif.PolicySync)
	obs.Observe([]flight.CallsiteStats{whatIfInterval(0, "demo.misroute", 0, 500)}, 0)
	verdict := obs.Observe([]flight.CallsiteStats{whatIfInterval(0, "demo.misroute", 1_000_000, 500)}, 1e9)
	detected := 0.0
	if w := verdict.Worst(); w != nil && w.Best == whatif.PolicyHot && w.RegretCycles > 0 {
		detected = 1
	}
	r.Values = append(r.Values, Value{Name: "misroute-detected", Got: detected, Unit: "calls"})

	var sb strings.Builder
	fmt.Fprintf(&sb, "causal validation (delta=%.0f%%, %d calls, seed 42):\n%s\n",
		whatIfDelta*100, whatIfCalls, tbl.String())
	fmt.Fprintf(&sb, "shadow routing: ordering agreement %.1f%% over %d callsite-intervals (replay, seeds 0/7/42/123)\n",
		agree.Fraction()*100, agree.Total)
	if w := verdict.Worst(); w != nil {
		fmt.Fprintf(&sb, "misroute demo: %q %s -> recommend %s, regret %.3gM cycles/interval\n",
			w.Site, w.Current, w.Best, w.RegretCycles/1e6)
	}
	r.Table = sb.String()

	if whatIfJSONPath != "" {
		obs.Observe([]flight.CallsiteStats{whatIfInterval(0, "demo.misroute", 2_000_000, 500)}, 1e9)
		data, err := json.MarshalIndent(obs.Report(), "", "  ")
		if err == nil {
			err = os.WriteFile(whatIfJSONPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(&sb, "artifact error: %v\n", err)
			r.Table = sb.String()
		}
	}
	return r
}

func init() {
	register(Experiment{ID: "whatif", Title: "What-if observatory", Run: runWhatIf})
}
