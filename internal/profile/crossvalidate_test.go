// The headline correctness check of the profiler: the same workloads run
// through the trace-attributed profiler and the analytic cost model must
// agree per component.  The profiler validates the cost model and vice
// versa — disagreement means either the instrumentation lost cycles or
// the model's constants drifted from what the simulation charges.
package profile_test

import (
	"math"
	"testing"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/profile"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

const xvalEDL = `
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

// xvalFixture builds the microbenchmark platform with nothing attached,
// so warm-up runs leave no events behind.
func xvalFixture(t *testing.T) (*sgx.Platform, *sdk.Runtime) {
	t.Helper()
	p := sgx.NewPlatform(7)
	var clk sim.Clock
	e := p.ECreate(&clk, 64<<20, 4)
	for i := 0; i < 4; i++ {
		if err := e.EAdd(&clk, uint64(i)*sgx.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EInit(&clk); err != nil {
		t.Fatal(err)
	}
	rt := sdk.New(p, e, edl.MustParse(xvalEDL))
	noop := func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 }
	rt.MustBindECall("ecall_empty", noop)
	rt.MustBindOCall("ocall_empty", noop)
	rt.MustBindECall("ecall_driver", func(ctx *sdk.Ctx, a []sdk.Arg) uint64 {
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			t.Error(err)
		}
		return 0
	})
	return p, rt
}

// checkComponent asserts trace-attributed and analytic cycles agree
// within the acceptance tolerance of ±5% per component.
func checkComponent(t *testing.T, site string, c profile.Category, got, want float64) {
	t.Helper()
	if want == 0 {
		// Components the analytic model predicts as absent must be
		// (near) absent in the trace too.
		if got > 1 {
			t.Errorf("%s/%s: trace attributes %.1f cyc/call, analytic model predicts 0", site, c, got)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("%s/%s: trace %.1f vs analytic %.1f cyc/call (%.1f%% apart, tolerance 5%%)",
			site, c, got, want, rel*100)
	} else {
		t.Logf("%s/%-9s trace %8.1f  analytic %8.1f  (%+.2f%%)", site, c, got, want, (got-want)/want*100)
	}
}

func TestCrossValidation(t *testing.T) {
	p, rt := xvalFixture(t)

	// Warm every path before attaching the tracer, mirroring the
	// paper's measurement discipline.
	for i := 0; i < 50; i++ {
		var clk sim.Clock
		if _, err := rt.ECall(&clk, "ecall_empty"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ECall(&clk, "ecall_driver"); err != nil {
			t.Fatal(err)
		}
	}

	tr := telemetry.NewTracer(1 << 20)
	p.SetTracer(tr)
	rt.SetTracer(tr)
	ch := core.NewChannel(rt, p.RNG)
	ch.SetTracer(tr)

	const (
		sdkRuns = 400
		hotRuns = 4000
	)
	var clk sim.Clock
	for i := 0; i < sdkRuns; i++ {
		if _, err := rt.ECall(&clk, "ecall_empty"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sdkRuns; i++ {
		if _, err := rt.ECall(&clk, "ecall_driver"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hotRuns; i++ {
		if _, err := ch.HotECall(&clk, "ecall_empty"); err != nil {
			t.Fatal(err)
		}
	}

	events := tr.Events()
	if len(events) == 1<<20 {
		t.Fatal("trace ring full: older events may be overwritten and results partial")
	}
	prof := profile.Analyze(events)

	for _, tc := range []struct {
		site string
		want profile.Analytic
	}{
		{"ecall:ecall_empty", profile.AnalyticWarmECall()},
		{"ocall:ocall_empty", profile.AnalyticWarmOCall()},
		{"hotecall:ecall_empty", profile.AnalyticHotCall(ch.Model)},
	} {
		b := prof.Calls[tc.site]
		if b == nil {
			t.Fatalf("no breakdown for %s (%d sites)", tc.site, len(prof.Calls))
		}
		for c := profile.Category(0); c < profile.NumCategories; c++ {
			checkComponent(t, tc.site, c, b.PerCall(c), tc.want.Component(c))
		}
		if got, want := b.Mean(), tc.want.Total(); math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: total %.1f vs analytic %.1f cyc/call", tc.site, got, want)
		}
	}

	// The driver ecall itself must still look like a warm empty ecall
	// once its nested ocall is carved out into the ocall's breakdown.
	drv := prof.Calls["ecall:ecall_driver"]
	if drv == nil {
		t.Fatal("no breakdown for ecall:ecall_driver")
	}
	want := profile.AnalyticWarmECall()
	if got := drv.Mean(); math.Abs(got-want.Total())/want.Total() > 0.05 {
		t.Errorf("driver attributed %.1f cyc/call, want ~%.1f after excluding nested ocall", got, want.Total())
	}
}

// TestCrossValidationCallCounts pins the per-site call counts the trace
// reconstruction finds — a missed or double-counted span would skew the
// per-call averages silently.
func TestCrossValidationCallCounts(t *testing.T) {
	p, rt := xvalFixture(t)
	tr := telemetry.NewTracer(1 << 18)
	p.SetTracer(tr)
	rt.SetTracer(tr)
	var clk sim.Clock
	for i := 0; i < 25; i++ {
		if _, err := rt.ECall(&clk, "ecall_driver"); err != nil {
			t.Fatal(err)
		}
	}
	prof := profile.Analyze(tr.Events())
	if n := prof.Calls["ecall:ecall_driver"].Calls; n != 25 {
		t.Fatalf("driver calls = %d, want 25", n)
	}
	if n := prof.Calls["ocall:ocall_empty"].Calls; n != 25 {
		t.Fatalf("nested ocall calls = %d, want 25", n)
	}
}

// TestSpeedupAppliedSim closes the loop on the real simulation: predict
// the throughput gain of a 10% spin speedup from a traced HotCall
// workload, then re-run the identical workload (same seed, same RNG
// draws) on a LatencyModel scaled to 90% and compare the measured gain.
func TestSpeedupAppliedSim(t *testing.T) {
	const runs, delta = 3000, 0.10

	run := func(scale float64) *profile.Breakdown {
		p, rt := xvalFixture(t)
		tr := telemetry.NewTracer(1 << 20)
		p.SetTracer(tr)
		rt.SetTracer(tr)
		ch := core.NewChannel(rt, p.RNG)
		ch.SetTracer(tr)
		ch.Model = ch.Model.Scale(scale)
		var clk sim.Clock
		for i := 0; i < runs; i++ {
			if _, err := ch.HotECall(&clk, "ecall_empty"); err != nil {
				t.Fatal(err)
			}
		}
		events := tr.Events()
		if len(events) == 1<<20 {
			t.Fatal("trace ring full: older events may be overwritten")
		}
		b := profile.Analyze(events).Calls["hotecall:ecall_empty"]
		if b == nil || b.Calls != runs {
			t.Fatalf("traced breakdown %+v, want %d calls", b, runs)
		}
		return b
	}

	base := run(1)
	predicted := base.Speedup(profile.CatSpin, delta)
	if predicted == 0 {
		t.Fatalf("no spin cycles in the breakdown: %+v", base.Cycles)
	}
	applied := float64(base.Total)/float64(run(1-delta).Total) - 1
	if rel := math.Abs(predicted-applied) / applied; rel > 0.05 {
		t.Errorf("spin: predicted %+.3f%% vs applied %+.3f%% throughput (%.1f%% apart, tolerance 5%%)",
			predicted*100, applied*100, rel*100)
	} else {
		t.Logf("spin: predicted %+.3f%%  applied %+.3f%%", predicted*100, applied*100)
	}
}
