// Command hotpath is the repository's benchmark: five named workloads
// over the fabric apps and the simulated platform, driven from outside
// through the program's public API.  See ../README.md.
//
//	hotpath --workload W --seed N --seconds S --trace 0   end-to-end metrics of W
//	hotpath --workload W --seed N --seconds S --trace 1   per-layer metrics of W
//	hotpath [--seed N] [--seconds S]                      every workload, both passes
//	hotpath --selfcheck [--seed N] [--seconds S]          two untraced sets, compared
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times an untraced run builds its server and
// inputs from scratch; setup_s is the median.
const setupRepeats = 9

// outDir receives the traced pass's span files; the benchmark runs from
// the root of the checkout.
const outDir = "benchmarks/out"

// manifest is BENCHMARK.json, read for the bounds the tables print and
// the self-check applies.
type manifest struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) bounds() map[string]float64 {
	b := map[string]float64{}
	for _, e := range m.EndToEnd {
		if e.Bound != nil {
			b[e.Name] = *e.Bound
		}
	}
	return b
}

// result is the contract's last-line object.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(defs []metricDef, vs values, attempted, failed uint64, consistent bool) result {
	r := result{Correct: failed == 0 && consistent, Attempted: attempted, Failed: failed, Metrics: map[string]resultMetric{}}
	for _, d := range defs {
		r.Metrics[d.name] = resultMetric{vs[d.name].v, d.unit}
	}
	return r
}

// setUp builds w's server and inputs from seed, boots it and serves the
// fixed-count warm-up, repeats times; it returns the last instance still
// running, the index of its next unit, and every set-up time.
func setUp(w *workload, seed uint64, repeats int) (instance, int, []float64, error) {
	var times []float64
	for r := 0; ; r++ {
		t0 := time.Now()
		in := w.build(seed)
		if err := in.start(); err != nil {
			in.stop()
			return nil, 0, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		var failed uint32
		base := time.Now()
		for i := 0; i < w.warmUnits; i++ {
			failed += in.step(i, nil, -1, base).failed
		}
		times = append(times, time.Since(t0).Seconds())
		if failed != 0 {
			in.stop()
			return nil, 0, nil, fmt.Errorf("%s: set-up: %d warm-up requests failed", w.name, failed)
		}
		if r == repeats-1 {
			return in, w.warmUnits, times, nil
		}
		in.stop()
	}
}

// consistent reports the harness's own invariants for an instance after
// its runs; a simulated statistic that drifted between sweeps breaks one.
func consistent(in instance) bool {
	g, ok := in.(*simGen)
	return !ok || g.drift == 0
}

// measure is the untraced pass: set up, discard a warm-up of seconds/10,
// measure for seconds.
func measure(w *workload, seed uint64, seconds float64) (values, result, error) {
	in, next, setups, err := setUp(w, seed, setupRepeats)
	if err != nil {
		return nil, result{}, err
	}
	defer in.stop()
	d := time.Duration(seconds * float64(time.Second))
	warm, next := run(w, in, seed, next, d/10, nil)
	warm.free()
	rec, _ := run(w, in, seed, next, d, nil)
	defer rec.free()
	if rec.attempted == 0 {
		return nil, result{}, fmt.Errorf("%s: no request completed in %v", w.name, d)
	}
	vs := endToEndValues(rec, setups)
	return vs, newResult(endToEnd, vs, rec.attempted, rec.failed, consistent(in)), nil
}

// Shares of --seconds the traced pass gives its three parts.
const (
	traceRefShare   = 0.3 // untraced reference run
	traceRunShare   = 0.3 // run with spans
	traceProbeShare = 0.4 // single-layer probes, split evenly
)

// trace is the traced pass: an untraced reference run, the same workload
// again with spans around every call into the program, then the probes.
func trace(w *workload, seed uint64, seconds float64, dir string) (values, result, error) {
	in, next, _, err := setUp(w, seed, 1)
	if err != nil {
		return nil, result{}, err
	}
	defer in.stop()
	d := time.Duration(seconds * float64(time.Second))
	ref, next := run(w, in, seed, next, time.Duration(traceRefShare*float64(d)), nil)
	defer ref.free()

	simRef, _ := in.(*simGen)
	var simProf *simGen
	traced := in
	if simRef != nil {
		// The profiled sweeps run on their own generator so that their
		// statistics can be compared with the unprofiled ones.
		simProf = &simGen{seed: seed, profile: true}
		traced = simProf
	}
	tr := newTracer()
	defer tr.free()
	trc, _ := run(w, traced, seed, next, time.Duration(traceRunShare*float64(d)), tr)
	defer trc.free()
	if ref.attempted == 0 || trc.attempted == 0 {
		return nil, result{}, fmt.Errorf("%s: no request completed in the traced pass", w.name)
	}
	ok := consistent(in) && consistent(traced)
	if simProf != nil {
		for c := range simRef.cells {
			if simRef.cells[c].value != simProf.cells[c].value {
				ok = false // enabling the profile moved a simulated statistic
			}
		}
	}

	probes, err := runProbes(seed, time.Duration(traceProbeShare*float64(d)))
	if err != nil {
		return nil, result{}, err
	}
	path, err := writeTrace(dir, w.name, tr.spans)
	if err != nil {
		return nil, result{}, err
	}
	fmt.Printf("trace: %d spans recorded, first %d written to %s\n", len(tr.spans), min(len(tr.spans), traceFileSpans), path)

	vs := perLayerValues(w, ref, trc, tr.spans, probes, simRef, simProf)
	return vs, newResult(perLayer, vs, ref.attempted+trc.attempted, ref.failed+trc.failed, ok), nil
}

// envLine describes the machine and the code every output belongs to.
func envLine() string {
	// The toolchain stamps the commit into the binary when it builds
	// inside a git work tree; the driver's checkout is not one.
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value[:min(len(s.Value), 12)]
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func printResult(r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// selfCheck runs the untraced set twice and compares every end-to-end
// metric of every workload against its bound.
func selfCheck(seed uint64, seconds float64, bounds map[string]float64) error {
	var runs [2]map[string]values
	for r := range runs {
		runs[r] = map[string]values{}
		for _, w := range workloads {
			vs, res, err := measure(w, seed, seconds)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted)
			}
			runs[r][w.name] = vs
		}
	}
	failed := 0
	fmt.Printf("%-14s %-18s %14s %14s %9s %8s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := runs[0][w.name][d.name].v, runs[1][w.name][d.name].v
			worse := (b - a) / a
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > bounds[d.name] {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %8.2f%% %7.2f%% %s\n", w.name, d.name, a, b, 100*worse, 100*bounds[d.name], verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same code", failed)
	}
	fmt.Println("selfcheck: PASS")
	return nil
}

func realMain() error {
	name := flag.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	check := flag.Bool("selfcheck", false, "run the untraced set twice and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return errors.New("bad arguments")
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	bounds := m.bounds()
	fmt.Println(envLine())

	if *check {
		return selfCheck(*seed, *seconds, bounds)
	}
	todo := workloads
	passes := []int{0, 1}
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo, passes = []*workload{w}, []int{*traced}
	}
	for _, w := range todo {
		for _, pass := range passes {
			var vs values
			var res result
			var err error
			defs := endToEnd
			if pass == 0 {
				vs, res, err = measure(w, *seed, *seconds)
			} else {
				defs = perLayer
				vs, res, err = trace(w, *seed, *seconds, outDir)
			}
			if err != nil {
				return err
			}
			title := fmt.Sprintf("%s seed=%d seconds=%g trace=%d: attempted=%d failed=%d fail_share=%g",
				w.name, *seed, *seconds, pass, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
			printTable(title, defs, vs, bounds)
			if err := printResult(res); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "hotpath:", err)
		os.Exit(1)
	}
}
