package bench

import (
	"fmt"
	"strings"

	"hotcalls/internal/core"
	"hotcalls/internal/sim"
)

// measureHotEcall measures empty HotEcalls through the simulated HotCalls
// channel on a fresh fixture, under the Section 3.1 methodology
// measureEcall follows; cold runs evict the cache hierarchy before every
// call, warm-up included, as Table 1 does.
func measureHotEcall(runs int, cold bool) *sim.Sample {
	f := newMicroFixture(161)
	ch := core.NewChannel(f.rt, sim.NewRNG(seedFor(163)))
	ch.SetTelemetry(tel)
	call := func() uint64 {
		if cold {
			f.p.Mem.EvictAll()
		}
		var clk sim.Clock
		if _, err := ch.HotECall(&clk, "ecall_empty"); err != nil {
			panic(err)
		}
		return clk.Now()
	}
	for i := 0; i < 50; i++ {
		call()
	}
	return sim.Measure(f.p.RNG, runs, call).Sample
}

// runFig3 regenerates Figure 3: the CDF of HotEcall latency, warm and
// cold.  Paper: over 78% of calls below 620 cycles, 99.97% within 1,400
// cycles — a 13-27x improvement over the SDK mechanism.
func runFig3() *Report {
	r := &Report{ID: "fig3", Title: "Figure 3: CDF of HotCall latency", CSV: map[string]string{}}
	s := measureHotEcall(microRuns, false)
	cold := measureHotEcall(microRuns/4, true)
	r.Samples = []NamedSample{{"hotecall_warm", s}, {"hotecall_cold", cold}}
	below620 := s.FractionBelow(620) * 100
	below1400 := s.FractionBelow(1400) * 100

	tbl := &table{header: []string{"metric", "measured", "paper"}}
	tbl.add("median (cycles)", f0(s.Median()), "~620 \"in most cases\"")
	tbl.add("fraction <= 620 cycles", fmt.Sprintf("%.1f%%", below620), ">78%")
	tbl.add("fraction <= 1400 cycles", fmt.Sprintf("%.2f%%", below1400), "99.97%")
	tbl.add("p99.97 (cycles)", f0(s.Percentile(99.97)), "~1400")
	tbl.add("cold median (cycles)", f0(cold.Median()), "-")
	r.Table = tbl.String() + "\n" + asciiCDF("HotCall latency CDF", s.CDF(60), 60, 10)
	r.Values = []Value{
		{Name: "hotcall median", Got: s.Median(), Paper: 620, Unit: "cycles"},
		{Name: "fraction below 620", Got: below620, Paper: 78, Unit: "%"},
		{Name: "fraction below 1400", Got: below1400, Paper: 99.97, Unit: "%"},
		{Name: "hotcall cold median", Got: cold.Median(), Unit: "cycles"},
	}

	var csv strings.Builder
	csv.WriteString("cycles,fraction\n")
	for _, p := range s.CDF(200) {
		fmt.Fprintf(&csv, "%.0f,%.4f\n", p.Value, p.Fraction)
	}
	r.CSV["fig3.csv"] = csv.String()
	return r
}

func init() {
	register(Experiment{ID: "fig3", Title: "HotCall latency CDF (Figure 3)", Run: runFig3})
}
