package bench

import (
	"fmt"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

// runAblationCalls quantifies the Section 3.5 "Lessons Learned" — the best
// practices the paper derives from the microbenchmarks — plus the
// Section 3.5 "Further optimizations" (word-wide memset, AVX memcpy)
// implemented behind the runtime's OptimizedMemops switch.
func runAblationCalls() *Report {
	r := &Report{ID: "ablation-calls", Title: "Section 3.5 lessons learned: transfer-method ablations (2 KB buffers)"}
	tbl := &table{header: []string{"strategy", "baseline", "optimized", "saving", "paper saving"}}

	measureEcallVariant := func(fn string, optimized bool) float64 {
		f := newMicroFixture(401)
		f.rt.OptimizedMemops = optimized
		var clk sim.Clock
		buf := f.rt.Arena.AllocBuffer(&clk, 2048)
		s := f.measureEcall(fn, 2000, func() { f.p.Mem.EvictRange(buf.Addr, 2048) },
			sdk.Buf(buf), sdk.Scalar(2048))
		return s.Median()
	}
	measureOcallVariant := func(fn string, optimized, nrz bool) float64 {
		f := newMicroFixture(403)
		f.rt.OptimizedMemops = optimized
		f.rt.NoRedundantZeroing = nrz
		ebuf := mustEnclaveBuf(f, 2048)
		return f.measureOcall(fn, 2000, nil, sdk.Buf(ebuf), sdk.Scalar(2048)).Median()
	}
	add := func(name string, base, opt, paperSaving float64) {
		saving := base - opt
		r.Values = append(r.Values, Value{Name: name, Got: saving, Paper: paperSaving, Unit: "cycles"})
		paperStr := "-"
		if paperSaving != 0 {
			paperStr = f0(paperSaving)
		}
		tbl.add(name, f0(base), f0(opt), f0(saving), paperStr)
	}

	// 1. "Selecting the right transfer method": in&out instead of out
	// saves the redundant zeroing (paper: 885 cycles for ecalls, 1,617
	// for ocalls at 2 KB).
	ecallOut := measureEcallVariant("ecall_out", false)
	ecallInOut := measureEcallVariant("ecall_inout", false)
	add("ecall: in&out instead of out", ecallOut, ecallInOut, 885)
	ocallOut := measureOcallVariant("ocall_out", false, false)
	ocallInOut := measureOcallVariant("ocall_inout", false, false)
	add("ocall: in&out instead of out", ocallOut, ocallInOut, 1617)

	// 2. "Opting for user_check": zero-copy output saves ~3,000 cycles
	// at 2 KB (paper: 11,712 vs 8,640).
	f := newMicroFixture(405)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 2048)
	userCheck := f.measureEcall("ecall_empty", 2000, func() { f.p.Mem.EvictRange(buf.Addr, 2048) })
	add("ecall: user_check instead of out", ecallOut, userCheck.Median(), 3072)

	// 3. "Ocalls vs Ecalls": delivering data from the enclave through an
	// ocall [in] beats returning it via an ecall [out] (paper: 9,252 vs
	// 11,712).
	ocallIn := measureOcallVariant("ocall_in", false, false)
	add("deliver via ocall-in, not ecall-out", ecallOut, ocallIn, 2460)

	// 4. "Further optimizations": word-wide memset + AVX memcpy.
	ecallOutFast := measureEcallVariant("ecall_out", true)
	add("ecall out: optimized memset/memcpy", ecallOut, ecallOutFast, 0)
	ocallOutFast := measureOcallVariant("ocall_out", true, false)
	add("ocall out: optimized memset/memcpy", ocallOut, ocallOutFast, 0)

	// 5. No-Redundant-Zeroing on the ocall [out] path (Section 6).
	ocallOutNRZ := measureOcallVariant("ocall_out", false, true)
	add("ocall out: No-Redundant-Zeroing", ocallOut, ocallOutNRZ, 2048)

	r.Table = tbl.String()
	return r
}

// runAblationCores regenerates the Section 4.4 analysis: dedicating a
// logical core to the HotCalls responder is worthwhile only when it more
// than doubles throughput — otherwise the core would serve better as a
// second worker thread (whose best case is 2x).
func runAblationCores() *Report {
	r := &Report{ID: "ablation-cores", Title: "Section 4.4: HotCalls responder core vs. a second worker thread"}
	tbl := &table{header: []string{"app", "sgx x1", "sgx x2 workers (bound)", "hotcalls (1+responder)", "verdict"}}

	type point struct {
		name     string
		sgx, hot float64
	}
	points := []point{}
	{
		m := memcached.Run(porting.SGX, appSimSeconds/2)
		h := memcached.Run(porting.HotCallsNRZ, appSimSeconds/2)
		points = append(points, point{"memcached", m.Throughput, h.Throughput})
	}
	{
		m := openvpn.RunIperf(porting.SGX, appSimSeconds/2)
		h := openvpn.RunIperf(porting.HotCallsNRZ, appSimSeconds/2)
		points = append(points, point{"openvpn", m.BandwidthMbs, h.BandwidthMbs})
	}
	{
		m := lighttpd.Run(porting.SGX, appSimSeconds/2)
		h := lighttpd.Run(porting.HotCallsNRZ, appSimSeconds/2)
		points = append(points, point{"lighttpd", m.Throughput, h.Throughput})
	}
	for _, p := range points {
		twoWorkers := p.sgx * 2 // the second worker's absolute best case
		verdict := "prefer second worker"
		if p.hot > twoWorkers {
			verdict = "prefer HotCalls responder"
		}
		boost := p.hot / p.sgx
		r.Values = append(r.Values, Value{Name: p.name + " boost", Got: boost, Paper: 0, Unit: "x"})
		tbl.add(p.name, f0(p.sgx), f0(twoWorkers), fmt.Sprintf("%.0f (%.1fx)", p.hot, boost), verdict)
	}
	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "ablation-calls", Run: runAblationCalls})
	register(Experiment{ID: "ablation-cores", Run: runAblationCores})
}
