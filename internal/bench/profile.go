package bench

import (
	"fmt"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/profile"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

const profileEDL = `
enclave {
    trusted {
        public int ecall_empty(void);
        public int ecall_driver(void);
    };
    untrusted {
        int ocall_empty(void);
    };
};
`

// traceProfile runs the warm ecall, warm ocall and HotCall workloads on
// a freshly seeded platform under deep tracing, the HotCall latency
// model scaled by spinScale, and returns the analyzed trace with the
// model that ran.
func traceProfile(spinScale float64) (*profile.Profile, *core.LatencyModel) {
	p := sgx.NewPlatform(7)
	var setup sim.Clock
	e := p.ECreate(&setup, 64<<20, 4, sgx.Attributes{})
	for i := 0; i < 4; i++ {
		if err := e.EAdd(&setup, uint64(i)*sgx.PageSize, make([]byte, sgx.PageSize)); err != nil {
			panic(err)
		}
	}
	if err := e.EInit(&setup); err != nil {
		panic(err)
	}
	rt := sdk.New(p, e, edl.MustParse(profileEDL))
	noop := func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 }
	rt.MustBindECall("ecall_empty", noop)
	rt.MustBindOCall("ocall_empty", noop)
	rt.MustBindECall("ecall_driver", func(ctx *sdk.Ctx, a []sdk.Arg) uint64 {
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			panic(err)
		}
		return 0
	})

	// Warm every path before attaching the tracer so the traced runs see
	// only steady-state costs.
	for i := 0; i < 50; i++ {
		var clk sim.Clock
		rt.ECall(&clk, "ecall_empty")
		rt.ECall(&clk, "ecall_driver")
	}

	// A private deep-tracing registry: this experiment profiles itself
	// regardless of hotbench's -profile flag.
	reg := telemetry.New()
	reg.EnableDeepTracing(1 << 20)
	p.SetTelemetry(reg)
	rt.SetTelemetry(reg)
	ch := core.NewChannel(rt, p.RNG)
	ch.SetTelemetry(reg)
	ch.Model = ch.Model.Scale(spinScale)

	const (
		sdkRuns = 400
		hotRuns = 4000
	)
	var clk sim.Clock
	for i := 0; i < sdkRuns; i++ {
		rt.ECall(&clk, "ecall_empty")
	}
	for i := 0; i < sdkRuns; i++ {
		rt.ECall(&clk, "ecall_driver")
	}
	for i := 0; i < hotRuns; i++ {
		ch.HotECall(&clk, "ecall_empty")
	}

	return profile.Analyze(reg.Tracer().Events()), ch.Model
}

// runProfile cross-validates the trace-attributed profiler against the
// analytic cost model: the same warm ecall, warm ocall, and HotCall
// workloads are run under deep tracing, the resulting call trees are
// folded into per-component breakdowns, and each component is compared
// against what the closed-form model predicts.  Agreement within ±5%
// per component is the profiler's headline acceptance criterion.  The
// last row is the counterfactual: the throughput gain Breakdown.Speedup
// predicts for a 10% faster spin, against the gain of the same seeded
// run on a latency model actually scaled to 90%.
func runProfile() *Report {
	r := &Report{ID: "profile", Title: "Profiler cross-validation: trace-attributed vs analytic cycles"}
	prof, model := traceProfile(1)

	tbl := &table{header: []string{"call site", "component", "trace cyc/call", "analytic", "deviation"}}
	for _, tc := range []struct {
		site string
		want profile.Analytic
	}{
		{"ecall:ecall_empty", profile.AnalyticWarmECall()},
		{"ocall:ocall_empty", profile.AnalyticWarmOCall()},
		{"hotecall:ecall_empty", profile.AnalyticHotCall(model)},
	} {
		b := prof.Calls[tc.site]
		if b == nil {
			tbl.add(tc.site, "MISSING", "-", "-", "-")
			continue
		}
		for c := profile.Category(0); c < profile.NumCategories; c++ {
			want := tc.want.Component(c)
			if want == 0 {
				continue
			}
			got := b.PerCall(c)
			tbl.add(tc.site, c.String(), f1(got), f1(want), pct(got, want))
			r.Values = append(r.Values, Value{
				Name: tc.site + " " + c.String(), Got: got, Paper: want, Unit: "cycles",
			})
		}
		tbl.add(tc.site, "total", f1(b.Mean()), f1(tc.want.Total()), pct(b.Mean(), tc.want.Total()))
		r.Values = append(r.Values, Value{
			Name: tc.site + " total", Got: b.Mean(), Paper: tc.want.Total(), Unit: "cycles",
		})
	}

	const hot, delta = "hotecall:ecall_empty", 0.10
	scaled, _ := traceProfile(1 - delta)
	predicted := 100 * prof.Calls[hot].Speedup(profile.CatSpin, delta)
	applied := 100 * (float64(prof.Calls[hot].Total)/float64(scaled.Calls[hot].Total) - 1)
	tbl.add(hot, "spin -10%", fmt.Sprintf("%+.3f%%", predicted), fmt.Sprintf("%+.3f%%", applied), pct(predicted, applied))
	r.Values = append(r.Values, Value{Name: hot + " spin speedup predicted vs applied", Got: predicted / applied, Unit: "ratio"})
	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "profile", Title: "Profiler cross-validation (trace vs analytic)", Run: runProfile})
}
