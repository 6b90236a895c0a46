package bench

import (
	"encoding/json"
	"io"
	"runtime"

	"hotcalls/internal/sim"
)

// This file renders experiment results as machine-readable JSON
// (BENCH_hotcalls.json), the third rendering of hotbench -docs's run:
// every value the experiments report, which TestCommittedArtifactsCurrent
// holds a fresh run to key by key.  It carries nothing a rerun of the
// same tree would change, so a clean regeneration leaves it untouched.

// JSONValue is one measured point.
type JSONValue struct {
	Name         string  `json:"name"`
	Got          float64 `json:"got"`
	Paper        float64 `json:"paper,omitempty"`
	Unit         string  `json:"unit"`
	DeviationPct float64 `json:"deviation_pct,omitempty"`
}

// JSONExperiment is one experiment's measured values.
type JSONExperiment struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Values []JSONValue `json:"values"`
}

// JSONSummary pulls the headline comparisons out of the per-experiment
// values: the warm crossing medians, the HotCall median, and the
// speedups the paper's abstract leads with.
type JSONSummary struct {
	EcallWarmMedianCycles float64 `json:"ecall_warm_median_cycles,omitempty"`
	OcallWarmMedianCycles float64 `json:"ocall_warm_median_cycles,omitempty"`
	HotCallMedianCycles   float64 `json:"hotcall_median_cycles,omitempty"`
	HotCallVsEcallSpeedup float64 `json:"hotcall_vs_ecall_speedup,omitempty"`
	HotCallVsOcallSpeedup float64 `json:"hotcall_vs_ocall_speedup,omitempty"`
}

// JSONReport is the whole artifact.  GOARCH says where it was generated:
// exactness is a same-architecture property.
type JSONReport struct {
	Schema      string           `json:"schema"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	FrequencyHz uint64           `json:"sim_frequency_hz"`
	MicroRuns   int              `json:"micro_runs"`
	Summary     JSONSummary      `json:"summary"`
	Experiments []JSONExperiment `json:"experiments"`
}

// BuildJSONReport converts a set of finished experiment reports into the
// JSON artifact, computing deviations and the headline summary.
func BuildJSONReport(reports []*Report) JSONReport {
	out := JSONReport{
		Schema:      "hotcalls-bench/v1",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		FrequencyHz: sim.FrequencyHz,
		MicroRuns:   microRuns,
	}
	for _, r := range reports {
		je := JSONExperiment{ID: r.ID, Title: r.Title}
		for _, v := range r.Values {
			jv := JSONValue{Name: v.Name, Got: v.Got, Paper: v.Paper, Unit: v.Unit}
			if v.Paper != 0 {
				jv.DeviationPct = v.Deviation() * 100
			}
			je.Values = append(je.Values, jv)
			switch {
			case r.ID == "table1" && v.Name == "Ecall (warm cache)":
				out.Summary.EcallWarmMedianCycles = v.Got
			case r.ID == "table1" && v.Name == "Ocall (warm cache)":
				out.Summary.OcallWarmMedianCycles = v.Got
			case r.ID == "fig3" && v.Name == "hotcall median":
				out.Summary.HotCallMedianCycles = v.Got
			}
		}
		out.Experiments = append(out.Experiments, je)
	}
	if h := out.Summary.HotCallMedianCycles; h > 0 {
		out.Summary.HotCallVsEcallSpeedup = out.Summary.EcallWarmMedianCycles / h
		out.Summary.HotCallVsOcallSpeedup = out.Summary.OcallWarmMedianCycles / h
	}
	return out
}

// WriteJSONReport renders the artifact with stable indentation, byte for
// byte the same for the same reports.
func WriteJSONReport(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSONReport(reports))
}
