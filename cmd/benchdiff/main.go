// Command benchdiff is the exact gate over the hotcalls-bench/v1
// artifact: it diffs a candidate against the committed baseline value
// for value, writes a markdown report, and exits 1 when any metric
// changed, appeared or vanished — regenerate BENCH_hotcalls.json (`make
// bench-json`) in the commit that moved it.  `make bench-regress` and CI
// run it.
package main

import (
	"flag"
	"fmt"
	"os"

	"hotcalls/internal/bench"
	"hotcalls/internal/regress"
)

func main() {
	baseline := flag.String("baseline", "BENCH_hotcalls.json", "committed baseline artifact")
	candidate := flag.String("candidate", "", "fresh candidate artifact to gate")
	md := flag.String("md", "", "write the markdown report here ('-' or empty for stdout)")
	flag.Parse()

	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -candidate is required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := loadReport(*baseline)
	if err != nil {
		fatal(err)
	}
	cand, err := loadReport(*candidate)
	if err != nil {
		fatal(err)
	}

	res := regress.Compare(base, cand)

	out := os.Stdout
	if *md != "" && *md != "-" {
		f, err := os.Create(*md)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := res.WriteMarkdown(out); err != nil {
		fatal(err)
	}

	fmt.Fprintln(os.Stderr, res.Summary())
	for _, d := range res.Failures() {
		fmt.Fprintf(os.Stderr, "  %s: %s (%s) %v -> %v\n", d.Class, d.Key, d.Unit, d.Base, d.Cand)
	}
	if res.Failed() {
		os.Exit(1)
	}
}

func loadReport(path string) (bench.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bench.JSONReport{}, err
	}
	return regress.Parse(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
