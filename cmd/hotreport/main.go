// Command hotreport runs the paper's full measurement plan through the
// high-resolution distribution recorder and writes the paper-fidelity
// report: REPORT.md (tables + embedded SVG CDFs) and report.json
// (schema hotcalls-report/v1).
//
// Usage:
//
//	hotreport                          # write REPORT.md + report.json
//	hotreport -seed 7 -md /tmp/r.md -json /tmp/r.json
//	hotreport -warm-runs 2000 -cold-runs 500 -app-seconds 0.01  # quick pass
//
// Exit status follows the benchdiff convention: 0 when every fidelity
// metric is within tolerance, 1 when any metric lands outside its band,
// 2 on usage errors.  Output is byte-deterministic under a fixed seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"hotcalls/internal/bench"
	"hotcalls/internal/report"
)

func main() {
	seed := flag.Uint64("seed", 0, "base seed for every random stream; 0 (the default) reproduces the committed REPORT.md byte for byte")
	mdPath := flag.String("md", "REPORT.md", "path for the markdown report ('' to skip)")
	jsonPath := flag.String("json", "report.json", "path for the JSON artifact ('' to skip)")
	warmRuns := flag.Int("warm-runs", 0, "calls per warm series (default: paper scale, 20000)")
	coldRuns := flag.Int("cold-runs", 0, "calls per cold series (default: paper scale, 5000)")
	appSeconds := flag.Float64("app-seconds", 0, "simulated seconds per application point (default 0.05)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hotreport: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	r := report.Build(bench.ReportConfig{
		Seed:       *seed,
		WarmRuns:   *warmRuns,
		ColdRuns:   *coldRuns,
		AppSeconds: *appSeconds,
	})

	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(r.Markdown()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hotreport: %v\n", err)
			os.Exit(2)
		}
		fmt.Println("wrote", *mdPath)
	}
	if *jsonPath != "" {
		buf, err := r.JSON()
		if err == nil {
			err = os.WriteFile(*jsonPath, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotreport: %v\n", err)
			os.Exit(2)
		}
		fmt.Println("wrote", *jsonPath)
	}

	fmt.Printf("fidelity: %d metrics compared\n", len(r.Fidelity.Deltas))
	if !r.FidelityOK() {
		for _, d := range r.Fidelity.Failures() {
			fmt.Printf("  OUTSIDE TOLERANCE %-32s measured %.2f paper %.2f (%+.1f%%, band ±%.0f%%)\n",
				d.Key, d.Cand, d.Base, d.ChangePct, d.TolerancePct)
		}
		fmt.Println("fidelity: FAIL")
		os.Exit(1)
	}
	fmt.Println("fidelity: PASS")
}
