package bench

import (
	"fmt"

	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
	"hotcalls/internal/spec"
)

// memMedian measures one memory microbenchmark under the Section 3.1
// protocol: evict the target, run the access pattern, median over many
// runs.
func memMedian(runs int, setup func(s *mem.System), op func(s *mem.System, clk *sim.Clock)) float64 {
	rng := sim.NewRNG(seedFor(211))
	s := mem.New(rng)
	return sim.Measure(rng, runs, func() uint64 {
		setup(s)
		var clk sim.Clock
		op(s, &clk)
		return clk.Now()
	}).Sample.Median()
}

const (
	plainBuf   = mem.PlainBase + (1 << 28)
	enclaveBuf = mem.EnclaveBase
)

func readMedian(base, size uint64) float64 {
	return memMedian(2000,
		func(s *mem.System) { s.EvictRange(base, size) },
		func(s *mem.System, clk *sim.Clock) {
			s.StreamRead(clk, base, size)
			s.MFence(clk)
		})
}

func writeMedian(base, size uint64) float64 {
	return memMedian(1500,
		func(s *mem.System) { s.EvictRange(base, size) },
		func(s *mem.System, clk *sim.Clock) {
			s.StreamWrite(clk, base, size)
			s.FlushRange(clk, base, size)
			s.MFence(clk)
		})
}

func missMedian(base uint64, write bool) float64 {
	return memMedian(4000,
		func(s *mem.System) { s.EvictRange(base, 64) },
		func(s *mem.System, clk *sim.Clock) {
			if write {
				s.Store(clk, base)
			} else {
				s.Load(clk, base)
			}
		})
}

// memoryRows produces Table 1 rows 7-10.
func memoryRows() []Value {
	return []Value{
		{Name: "Reading 2KB encrypted", Got: readMedian(enclaveBuf, 2048), Paper: 1124, Unit: "cycles"},
		{Name: "Reading 2KB plaintext", Got: readMedian(plainBuf, 2048), Paper: 727, Unit: "cycles"},
		{Name: "Writing 2KB encrypted", Got: writeMedian(enclaveBuf, 2048), Paper: 6875, Unit: "cycles"},
		{Name: "Writing 2KB plaintext", Got: writeMedian(plainBuf, 2048), Paper: 6458, Unit: "cycles"},
		{Name: "Cache load miss encrypted", Got: missMedian(enclaveBuf, false), Paper: 400, Unit: "cycles"},
		{Name: "Cache load miss plaintext", Got: missMedian(plainBuf, false), Paper: 308, Unit: "cycles"},
		{Name: "Cache store miss encrypted", Got: missMedian(enclaveBuf, true), Paper: 575, Unit: "cycles"},
		{Name: "Cache store miss plaintext", Got: missMedian(plainBuf, true), Paper: 481, Unit: "cycles"},
	}
}

// paperReadOverheads are Figure 6's reported encrypted-read overheads for
// 2, 4, 8, 16, 32 KB buffers.
var paperReadOverheads = map[uint64]float64{2: 54.5, 4: 68, 8: 71, 16: 94, 32: 102}

// runFig6 regenerates Figure 6: consecutive reads, encrypted vs plaintext.
func runFig6() *Report {
	r := &Report{ID: "fig6", Title: "Figure 6: consecutive memory reads, encrypted vs plaintext"}
	tbl := &table{header: []string{"size (KB)", "plaintext", "encrypted", "overhead", "paper"}}
	for _, kb := range []uint64{1, 2, 4, 8, 16, 32} {
		size := kb << 10
		plain := readMedian(plainBuf, size)
		enc := readMedian(enclaveBuf, size)
		ovh := (enc - plain) / plain * 100
		paperStr := "-"
		if p, ok := paperReadOverheads[kb]; ok {
			paperStr = fmt.Sprintf("%.1f%%", p)
			r.Values = append(r.Values, Value{Name: fmt.Sprintf("read overhead %dKB", kb), Got: ovh, Paper: p, Unit: "%"})
		}
		tbl.add(fmt.Sprint(kb), f0(plain), f0(enc), fmt.Sprintf("%.1f%%", ovh), paperStr)
	}
	r.Table = tbl.String()
	return r
}

// runFig7 regenerates Figure 7: consecutive writes (~6% overhead).
func runFig7() *Report {
	r := &Report{ID: "fig7", Title: "Figure 7: consecutive memory writes, encrypted vs plaintext"}
	tbl := &table{header: []string{"size (KB)", "plaintext", "encrypted", "overhead", "paper"}}
	for _, kb := range []uint64{1, 2, 4, 8, 16, 32} {
		size := kb << 10
		plain := writeMedian(plainBuf, size)
		enc := writeMedian(enclaveBuf, size)
		ovh := (enc - plain) / plain * 100
		r.Values = append(r.Values, Value{Name: fmt.Sprintf("write overhead %dKB", kb), Got: ovh, Paper: 6, Unit: "%"})
		tbl.add(fmt.Sprint(kb), f0(plain), f0(enc), fmt.Sprintf("%.1f%%", ovh), "~6%")
	}
	r.Table = tbl.String()
	return r
}

// runFig8 regenerates Figure 8: the memory-encryption overhead bars —
// load/store microbenchmarks plus the SPEC-like kernels.
func runFig8() *Report {
	r := &Report{ID: "fig8", Title: "Figure 8: memory encryption overhead (microbenchmarks and SPEC kernels)"}
	tbl := &table{header: []string{"benchmark", "slowdown", "paper"}}
	add := func(name string, got, paper float64, paperStr string) {
		r.Values = append(r.Values, Value{Name: name, Got: got, Paper: paper, Unit: "x"})
		tbl.add(name, f2(got), paperStr)
	}

	lp, le := readMedian(plainBuf, 2048), readMedian(enclaveBuf, 2048)
	add("L 2KB (consecutive loads)", le/lp, 1124.0/727, "1.55x")
	sp, se := writeMedian(plainBuf, 2048), writeMedian(enclaveBuf, 2048)
	add("S 2KB (consecutive stores)", se/sp, 6875.0/6458, "1.06x")
	mlp, mle := missMedian(plainBuf, false), missMedian(enclaveBuf, false)
	add("L miss (cache load miss)", mle/mlp, 400.0/308, "1.30x")
	msp, mse := missMedian(plainBuf, true), missMedian(enclaveBuf, true)
	add("S miss (cache store miss)", mse/msp, 575.0/481, "1.20x")

	for _, k := range spec.Kernels {
		res := k.Run(seedFor(301), 3)
		paper, paperStr := 0.0, "-"
		switch k.Name {
		case "mcf":
			paper, paperStr = 1.55, "1.55x"
		case "libquantum":
			paper, paperStr = 5.2, "5.2x"
		}
		add(k.Name, res.Slowdown, paper, paperStr)
	}
	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "fig6", Run: runFig6})
	register(Experiment{ID: "fig7", Run: runFig7})
	register(Experiment{ID: "fig8", Run: runFig8})
}
