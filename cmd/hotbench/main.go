// Command hotbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hotbench -run table1
//	hotbench -run fig2,fig3
//	hotbench -docs .                       # EXPERIMENTS.md, REPORT.md, BENCH_hotcalls.json from one run
//
// Each experiment prints a table comparing measured values against the
// paper's.  -docs runs every experiment once and writes all three
// renderings of the run — the two documents and the artifact
// go test ./internal/bench holds a fresh run to, value for value; it
// exits 1 when a paper-fidelity metric lands outside its band.  An
// unknown -run ID prints the valid IDs.
//
// Observability flag:
//
//	hotbench -run table1 -metrics          # Prometheus dump after the run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hotcalls/internal/bench"
	"hotcalls/internal/telemetry"
)

func main() {
	run := flag.String("run", "all", "experiment ID(s) to run, comma-separated, or 'all'")
	docsDir := flag.String("docs", "", "run everything once and write EXPERIMENTS.md, REPORT.md and BENCH_hotcalls.json into this directory; exit 1 when a paper-fidelity metric is outside its band")
	metrics := flag.Bool("metrics", false, "dump every counter family in Prometheus text format after the run")
	seed := flag.Uint64("seed", 0, "base seed the experiments' random streams derive from; 0 (the default) reproduces the committed EXPERIMENTS.md, REPORT.md and BENCH_hotcalls.json byte for byte")
	flag.Parse()

	bench.SetSeed(*seed)

	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.New()
		bench.SetTelemetry(reg)
	}

	if *docsDir != "" {
		if err := bench.WriteDocs(*docsDir); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote", filepath.Join(*docsDir, "EXPERIMENTS.md"), filepath.Join(*docsDir, "REPORT.md"), filepath.Join(*docsDir, "BENCH_hotcalls.json"))
		return
	}

	var experiments []bench.Experiment
	if *run == "all" {
		experiments = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := bench.Get(strings.TrimSpace(id))
			if e == nil {
				var ids []string
				for _, e := range bench.All() {
					ids = append(ids, e.ID)
				}
				fmt.Fprintf(os.Stderr, "hotbench: unknown experiment %q; valid IDs: %s\n", id, strings.Join(ids, ", "))
				os.Exit(1)
			}
			experiments = append(experiments, *e)
		}
	}

	for _, e := range experiments {
		start := time.Now()
		report := e.Run()
		fmt.Printf("=== %s ===\n%s\n%s(%.1fs)\n\n", report.ID, report.Title, report.Table, time.Since(start).Seconds())
	}

	if *metrics {
		fmt.Println("=== metrics (Prometheus text format) ===")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
	}
}
