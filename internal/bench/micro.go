package bench

import (
	"fmt"
	"strings"

	"hotcalls/internal/edl"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

// microEDL declares the edge functions of the Section 3 microbenchmarks.
const microEDL = `
enclave {
    trusted {
        public int ecall_empty(void);
        public int ecall_in([in, size=len] uint8_t* buf, size_t len);
        public int ecall_out([out, size=len] uint8_t* buf, size_t len);
        public int ecall_inout([in, out, size=len] uint8_t* buf, size_t len);
        public int ecall_driver(void);
    };
    untrusted {
        int ocall_empty(void);
        int ocall_in([in, size=len] uint8_t* buf, size_t len);
        int ocall_out([out, size=len] uint8_t* buf, size_t len);
        int ocall_inout([in, out, size=len] uint8_t* buf, size_t len);
    };
};
`

// microFixture is the platform + enclave + runtime the microbenchmarks run
// on, mirroring the paper's testbed setup.
type microFixture struct {
	p  *sgx.Platform
	e  *sgx.Enclave
	rt *sdk.Runtime
}

func newMicroFixture(seed uint64) *microFixture {
	p := sgx.NewPlatform(seedFor(seed))
	var clk sim.Clock
	e := p.ECreate(&clk, 64<<20, 4, sgx.Attributes{})
	for i := 0; i < 4; i++ {
		if err := e.EAdd(&clk, uint64(i)*sgx.PageSize, make([]byte, sgx.PageSize)); err != nil {
			panic(err)
		}
	}
	if err := e.EInit(&clk); err != nil {
		panic(err)
	}
	rt := sdk.New(p, e, edl.MustParse(microEDL))
	noop := func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 }
	for _, name := range []string{"ecall_empty", "ecall_in", "ecall_out", "ecall_inout"} {
		rt.MustBindECall(name, noop)
	}
	for _, name := range []string{"ocall_empty", "ocall_in", "ocall_out", "ocall_inout"} {
		rt.MustBindOCall(name, noop)
	}
	// Attach the harness registry (no-op handles when none is set).
	p.SetTelemetry(tel)
	rt.SetTelemetry(tel)
	return &microFixture{p: p, e: e, rt: rt}
}

// measureEcall measures one ecall variant under the Section 3.1
// methodology.  setup runs untimed before each measurement.
func (f *microFixture) measureEcall(name string, runs int, setup func(), args ...sdk.Arg) *sim.Sample {
	for i := 0; i < 50; i++ {
		var clk sim.Clock
		if setup != nil {
			setup()
		}
		if _, err := f.rt.ECall(&clk, name, args...); err != nil {
			panic(err)
		}
	}
	return sim.Measure(f.p.RNG, runs, func() uint64 {
		if setup != nil {
			setup()
		}
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, name, args...); err != nil {
			panic(err)
		}
		return clk.Now()
	}).Sample
}

// measureOcall measures one ocall variant issued from inside a driver
// ecall, timing only the ocall itself (RDTSCP cannot run inside the
// enclave, but the simulation can bracket precisely).
func (f *microFixture) measureOcall(name string, runs int, setup func(), args ...sdk.Arg) *sim.Sample {
	var ocallCycles uint64
	f.rt.MustBindECall("ecall_driver", func(ctx *sdk.Ctx, a []sdk.Arg) uint64 {
		if setup != nil {
			setup()
		}
		start := ctx.Clk.Now()
		if _, err := ctx.OCall(name, args...); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	run := func() uint64 {
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, "ecall_driver"); err != nil {
			panic(err)
		}
		return ocallCycles
	}
	for i := 0; i < 50; i++ {
		run()
	}
	return sim.Measure(f.p.RNG, runs, run).Sample
}

// leafSamples times the EENTER and EEXIT leaves in a direct loop on the
// fixture's first TCS — the one its ecalls enter, so a warm fixture finds
// the leaves' lines cached: the microcode share of every SDK crossing.
func (f *microFixture) leafSamples(runs int) []NamedSample {
	tcs := f.e.TCSByIndex(0)
	enter, exit := sim.NewSample(runs), sim.NewSample(runs)
	for i := 0; i < runs; i++ {
		var clk sim.Clock
		if err := f.e.EEnter(&clk, tcs); err != nil {
			panic(err)
		}
		enter.AddCycles(clk.Now())
		start := clk.Now()
		if err := f.e.EExit(&clk, tcs); err != nil {
			panic(err)
		}
		exit.AddCycles(clk.Since(start))
	}
	return []NamedSample{{"eenter_warm", enter}, {"eexit_warm", exit}}
}

const microRuns = 20000

// runTable1 regenerates Table 1: the ten microbenchmarks of Section 3.
func runTable1() *Report {
	r := &Report{ID: "table1", Title: "Table 1: microbenchmarks of fundamental SGX operations"}
	tbl := &table{header: []string{"#", "Micro-benchmark", "Median (cycles)", "Paper", "Dev"}}
	addRow := func(num int, name string, got, paper float64) {
		r.Values = append(r.Values, Value{Name: name, Got: got, Paper: paper, Unit: "cycles"})
		tbl.add(fmt.Sprint(num), name, f0(got), f0(paper), pct(got, paper))
	}

	// Rows 1-2: empty ecall, warm and cold.
	f := newMicroFixture(101)
	warm := f.measureEcall("ecall_empty", microRuns, nil)
	addRow(1, "Ecall (warm cache)", warm.Median(), 8640)
	cold := f.measureEcall("ecall_empty", microRuns/4, func() { f.p.Mem.EvictAll() })
	addRow(2, "Ecall (cold cache)", cold.Median(), 14170)

	// Row 3: ecall + 2 KB buffer to / from / to&from.  (The `from`
	// paper value is 11,712 per the Section 3.5 text; the table's
	// 11,172 contradicts the paper's own arithmetic.)
	for _, c := range []struct {
		fn    string
		label string
		paper float64
	}{
		{"ecall_in", "Ecall 2KB to enclave (in)", 9861},
		{"ecall_out", "Ecall 2KB from enclave (out)", 11712},
		{"ecall_inout", "Ecall 2KB to&from (in,out)", 10827},
	} {
		ff := newMicroFixture(103)
		var clk sim.Clock
		buf := ff.rt.Arena.AllocBuffer(&clk, 2048)
		s := ff.measureEcall(c.fn, microRuns/4, func() { ff.p.Mem.EvictRange(buf.Addr, 2048) },
			sdk.Buf(buf), sdk.Scalar(2048))
		addRow(3, c.label, s.Median(), c.paper)
	}

	// Rows 4-5: empty ocall, warm and cold.
	f2 := newMicroFixture(105)
	owarm := f2.measureOcall("ocall_empty", microRuns, nil)
	addRow(4, "Ocall (warm cache)", owarm.Median(), 8314)
	ocold := f2.measureOcall("ocall_empty", microRuns/4, func() { f2.p.Mem.EvictAll() })
	addRow(5, "Ocall (cold cache)", ocold.Median(), 14160)

	// Row 6: ocall + 2 KB buffer to / from / to&from.
	for _, c := range []struct {
		fn    string
		label string
		paper float64
	}{
		{"ocall_in", "Ocall 2KB to untrusted (in)", 9252},
		{"ocall_out", "Ocall 2KB from untrusted (out)", 11418},
		{"ocall_inout", "Ocall 2KB to&from (in,out)", 9801},
	} {
		ff := newMicroFixture(107)
		ebuf := mustEnclaveBuf(ff, 2048)
		s := ff.measureOcall(c.fn, microRuns/4, nil, sdk.Buf(ebuf), sdk.Scalar(2048))
		addRow(6, c.label, s.Median(), c.paper)
	}

	// Rows 7-10: memory microbenchmarks (encrypted / plaintext).
	for _, v := range memoryRows() {
		r.Values = append(r.Values, v)
		tbl.add(fmt.Sprint(rowNum(v.Name)), v.Name, f0(v.Got), f0(v.Paper), pct(v.Got, v.Paper))
	}

	r.Table = tbl.String()
	return r
}

func rowNum(name string) int {
	switch {
	case strings.Contains(name, "Reading"):
		return 7
	case strings.Contains(name, "Writing"):
		return 8
	case strings.Contains(name, "load miss"):
		return 9
	default:
		return 10
	}
}

func mustEnclaveBuf(f *microFixture, size uint64) *sdk.Buffer {
	var clk sim.Clock
	addr, err := f.e.Alloc(&clk, size)
	if err != nil {
		panic(err)
	}
	return &sdk.Buffer{Addr: addr, Data: make([]byte, size)}
}

// runFig2 regenerates Figure 2: CDFs of ecall and ocall latency, warm and
// cold.  It keeps the four samples, and the warm ecall fixture's leaf
// timings, for REPORT.md.
func runFig2() *Report {
	r := &Report{ID: "fig2", Title: "Figure 2: CDFs of ecall/ocall performance (warm and cold cache)", CSV: map[string]string{}}
	tbl := &table{header: []string{"series", "p0.1", "p50", "p99.9", "paper range"}}
	var plots strings.Builder
	series := []struct {
		name  string
		cold  bool
		ocall bool
		lo    float64 // paper's reported 99.9% band
		hi    float64
	}{
		{"ecall-warm", false, false, 8600, 8680},
		{"ecall-cold", true, false, 12500, 17000},
		{"ocall-warm", false, true, 8200, 8400},
		{"ocall-cold", true, true, 12500, 17000},
	}
	for _, sr := range series {
		f := newMicroFixture(111)
		var s *sim.Sample
		setup := func() {}
		if sr.cold {
			setup = func() { f.p.Mem.EvictAll() }
		}
		runs := microRuns
		if sr.cold {
			runs = microRuns / 4
		}
		if sr.ocall {
			s = f.measureOcall("ocall_empty", runs, setup)
		} else {
			s = f.measureEcall("ecall_empty", runs, setup)
		}
		r.Samples = append(r.Samples, NamedSample{strings.Replace(sr.name, "-", "_", 1), s})
		if sr.name == "ecall-warm" {
			r.Samples = append(r.Samples, f.leafSamples(microRuns)...)
		}
		tbl.add(sr.name, f0(s.Percentile(0.1)), f0(s.Median()), f0(s.Percentile(99.9)),
			fmt.Sprintf("[%.0f, %.0f]", sr.lo, sr.hi))
		r.Values = append(r.Values,
			Value{Name: sr.name + " p0.1", Got: s.Percentile(0.1), Paper: sr.lo, Unit: "cycles"},
			Value{Name: sr.name + " p99.9", Got: s.Percentile(99.9), Paper: sr.hi, Unit: "cycles"},
		)
		var csv strings.Builder
		csv.WriteString("cycles,fraction\n")
		for _, p := range s.CDF(200) {
			fmt.Fprintf(&csv, "%.0f,%.4f\n", p.Value, p.Fraction)
		}
		r.CSV["fig2_"+sr.name+".csv"] = csv.String()
		plots.WriteString(asciiCDF(sr.name, s.CDF(60), 60, 10))
		plots.WriteByte('\n')
	}
	r.Table = tbl.String() + "\n" + plots.String()
	return r
}

// runFig4 and runFig5 regenerate the buffer-transfer sweeps.
func runBufferSweep(id, title string, ocall bool) *Report {
	r := &Report{ID: id, Title: title, CSV: map[string]string{}}
	tbl := &table{header: []string{"size (KB)", "in", "out", "in&out"}}
	var csv strings.Builder
	csv.WriteString("size_bytes,in,out,inout\n")
	for _, kb := range []uint64{1, 2, 4, 8, 16} {
		size := kb << 10
		medians := map[string]float64{}
		for _, dir := range []string{"in", "out", "inout"} {
			f := newMicroFixture(113)
			var s *sim.Sample
			if ocall {
				ebuf := mustEnclaveBuf(f, size)
				s = f.measureOcall("ocall_"+dir, 2000, nil, sdk.Buf(ebuf), sdk.Scalar(size))
			} else {
				var clk sim.Clock
				buf := f.rt.Arena.AllocBuffer(&clk, size)
				sz := size
				s = f.measureEcall("ecall_"+dir, 2000, func() { f.p.Mem.EvictRange(buf.Addr, sz) },
					sdk.Buf(buf), sdk.Scalar(size))
			}
			medians[dir] = s.Median()
			r.Values = append(r.Values, Value{
				Name: fmt.Sprintf("%s %s %dKB", id, dir, kb), Got: s.Median(), Unit: "cycles",
			})
		}
		tbl.add(fmt.Sprint(kb), f0(medians["in"]), f0(medians["out"]), f0(medians["inout"]))
		fmt.Fprintf(&csv, "%d,%.0f,%.0f,%.0f\n", size, medians["in"], medians["out"], medians["inout"])
	}
	r.Table = tbl.String()
	r.CSV[id+".csv"] = csv.String()
	return r
}

func init() {
	register(Experiment{ID: "table1", Title: "Microbenchmark medians (Table 1)", Run: runTable1})
	register(Experiment{ID: "fig2", Title: "Ecall/ocall CDFs (Figure 2)", Run: runFig2})
	register(Experiment{ID: "fig4", Title: "Ecall buffer-transfer sweep (Figure 4)", Run: func() *Report {
		return runBufferSweep("fig4", "Figure 4: ecall + buffer transfer latency by size and direction", false)
	}})
	register(Experiment{ID: "fig5", Title: "Ocall buffer-transfer sweep (Figure 5)", Run: func() *Report {
		return runBufferSweep("fig5", "Figure 5: ocall + buffer transfer latency by size and direction", true)
	}})
}
