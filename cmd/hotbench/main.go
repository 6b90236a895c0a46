// Command hotbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hotbench -list
//	hotbench -run table1
//	hotbench -run all -csv out/
//	hotbench -docs .                       # EXPERIMENTS.md, REPORT.md, BENCH_hotcalls.json from one run
//
// Each experiment prints a table comparing measured values against the
// paper's; -csv additionally writes the raw series (CDFs, sweeps) for
// plotting.  -docs runs every experiment once and writes all three
// renderings of the run — the two documents and the artifact
// go test ./internal/bench holds a fresh run to, value for value; it
// exits 1 when a paper-fidelity metric lands outside its band.
//
// Observability flags:
//
//	hotbench -run table1 -metrics          # Prometheus dump after the run
//	hotbench -run table1 -trace out.json   # Chrome trace_event JSON
//	hotbench -run table1 -profile out.folded # cycle-attribution profile: folded stacks + breakdown tables
//	hotbench -run all -monitor             # health summary + alerts after the run
//	hotbench -run incident -incident-dir incidents # postmortem-bundle demo, spooled to disk
//	hotbench -run epc,zerocopy -csv demo-out # EPC cliff + fault heatmap SVG, staged vs zero-copy sweep CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hotcalls/internal/bench"
	"hotcalls/internal/monitor"
	"hotcalls/internal/profile"
	"hotcalls/internal/telemetry"
)

// traceCapacity bounds the boundary-event ring: enough for a full
// microbenchmark experiment without unbounded memory.
const traceCapacity = 1 << 18

// profileCapacity sizes the deep-tracing ring: per-phase and per-memory-
// operation events are ~20x denser than boundary spans, and the profiler
// wants whole call trees, not just the tail (table1 alone emits ~3M
// events).
const profileCapacity = 1 << 22

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "experiment ID(s) to run, comma-separated, or 'all'")
	csvDir := flag.String("csv", "", "directory to write the experiments' raw series into (CSV files, and the epc experiment's fault-heatmap SVG)")
	docsDir := flag.String("docs", "", "run everything once and write EXPERIMENTS.md, REPORT.md and BENCH_hotcalls.json into this directory; exit 1 when a paper-fidelity metric is outside its band")
	metrics := flag.Bool("metrics", false, "dump all counters and histograms in Prometheus text format after the run")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of boundary crossings to this path")
	profilePath := flag.String("profile", "", "write a cycle-attribution profile: folded flame-graph stacks to this path, breakdown tables to stdout")
	monitorFlag := flag.Bool("monitor", false, "run the continuous health monitor during the experiments and print its verdict and alerts afterwards")
	incidentDir := flag.String("incident-dir", "", "spool incident bundles captured by the experiments (see -run incident) to this directory as <bundle-id>.json")
	seed := flag.Uint64("seed", 0, "base seed the experiments' random streams derive from; 0 (the default) reproduces the committed EXPERIMENTS.md, REPORT.md and BENCH_hotcalls.json byte for byte")
	flag.Parse()

	bench.SetSeed(*seed)
	if *incidentDir != "" {
		bench.SetIncidentDir(*incidentDir)
	}

	var reg *telemetry.Registry
	if *metrics || *tracePath != "" || *profilePath != "" || *monitorFlag {
		reg = telemetry.New()
		if *profilePath != "" {
			// Deep tracing feeds both the profiler and -trace.
			reg.EnableDeepTracing(profileCapacity)
		} else if *tracePath != "" {
			reg.EnableTracing(traceCapacity)
		}
		bench.SetTelemetry(reg)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
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
				fmt.Fprintf(os.Stderr, "hotbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			experiments = append(experiments, *e)
		}
	}

	var mon *monitor.Monitor
	if *monitorFlag {
		mon = monitor.New(reg, monitor.Options{})
		mon.Tick() // baseline sample so even sub-interval runs show deltas
		mon.Start()
	}

	for _, e := range experiments {
		start := time.Now()
		report := e.Run()
		fmt.Printf("=== %s ===\n%s\n%s(%.1fs)\n\n", report.ID, report.Title, report.Table, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
				os.Exit(1)
			}
			for name, content := range report.CSV {
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}

	if mon != nil {
		mon.Stop()
		mon.Tick() // final cumulative sample so short runs still show data
		fmt.Println("=== monitor ===")
		fmt.Print(mon.RenderText(10))
		if dropped := mon.DroppedEvents(); dropped > 0 {
			fmt.Printf("(%d older events dropped from the bounded log)\n", dropped)
		}
	}
	if *metrics {
		fmt.Println("=== metrics (Prometheus text format) ===")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		if err := reg.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		if tr := reg.Tracer(); tr != nil && tr.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "hotbench: trace ring overflowed, oldest %d events dropped\n", tr.Dropped())
		}
		fmt.Println("wrote", *tracePath)
	}
	if *profilePath != "" {
		tr := reg.Tracer()
		if tr.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "hotbench: profile ring overflowed, oldest %d events dropped; attribution is partial\n", tr.Dropped())
		}
		prof := profile.Analyze(tr.Events())
		f, err := os.Create(*profilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		err = prof.WriteFolded(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *profilePath)
		fmt.Println("=== cycle attribution (per call site) ===")
		if err := prof.WriteCallTable(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if err := prof.WriteCategoryTable(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hotbench: %v\n", err)
			os.Exit(1)
		}
	}
}
