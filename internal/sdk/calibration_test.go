package sdk

import (
	"testing"

	"hotcalls/internal/sim"
)

// These tests pin the SDK call paths to the paper's Table 1 and Figure 2.
// Each follows the measurement methodology of Section 3.1: warm up, then
// repeated measurement with the memory hierarchy in the state the paper's
// protocol establishes (nothing flushed for warm runs; full LLC flush
// before each cold run; buffer eviction for the transfer benchmarks).

func calWithin(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.0f, want %.0f +/- %.0f%%", name, got, want, tol*100)
	} else {
		t.Logf("%s = %.0f (paper: %.0f)", name, got, want)
	}
}

func measureECall(f *fixture, n int, setup func(), args func() []Arg) *sim.Sample {
	// Warm up so lazy structures settle.
	for i := 0; i < 50; i++ {
		var clk sim.Clock
		if setup != nil {
			setup()
		}
		f.rt.ECall(&clk, ecallName(args), args()...)
	}
	res := sim.Measure(f.p.RNG, n, func() uint64 {
		if setup != nil {
			setup()
		}
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, ecallName(args), args()...); err != nil {
			panic(err)
		}
		return clk.Now()
	})
	return res.Sample
}

// ecallName picks the ecall by arity: no args = empty, otherwise the
// caller passes a closure that knows its own function; simplified by
// storing the name alongside.
var currentECall = "ecall_empty"

func ecallName(func() []Arg) string { return currentECall }

func TestTable1Row1EcallWarm(t *testing.T) {
	f := newFixture(t)
	currentECall = "ecall_empty"
	s := measureECall(f, 20000, nil, func() []Arg { return nil })
	calWithin(t, "ecall warm median", s.Median(), 8640, 0.02)
	// Figure 2a: with warm cache, 99.9% of calls complete within
	// 8,600-8,680 cycles.
	if lo, hi := s.Percentile(0.05), s.Percentile(99.95); lo < 8500 || hi > 8800 {
		t.Errorf("warm spread [%.0f, %.0f], want within ~[8600, 8680]", lo, hi)
	}
}

func TestTable1Row2EcallCold(t *testing.T) {
	f := newFixture(t)
	currentECall = "ecall_empty"
	s := measureECall(f, 4000, func() { f.p.Mem.EvictAll() }, func() []Arg { return nil })
	calWithin(t, "ecall cold median", s.Median(), 14170, 0.05)
	// Figure 2a: cold calls land between ~12,500 and ~17,000 cycles.
	if lo := s.Percentile(0.1); lo < 11500 {
		t.Errorf("cold p0.1 = %.0f, want >= ~12,000", lo)
	}
	if hi := s.Percentile(99.9); hi > 18500 {
		t.Errorf("cold p99.9 = %.0f, want <= ~17,500", hi)
	}
}

func TestTable1Row4OcallWarm(t *testing.T) {
	f := newFixture(t)
	var ocallCycles uint64
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		start := ctx.Clk.Now()
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	run := func() uint64 {
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, "ecall_empty"); err != nil {
			panic(err)
		}
		return ocallCycles
	}
	for i := 0; i < 50; i++ {
		run()
	}
	res := sim.Measure(f.p.RNG, 20000, run)
	s := res.Sample
	calWithin(t, "ocall warm median", s.Median(), 8314, 0.02)
	// Figure 2b: warm ocalls complete in 8,200-8,400 cycles.
	if lo, hi := s.Percentile(0.05), s.Percentile(99.95); lo < 8100 || hi > 8500 {
		t.Errorf("warm ocall spread [%.0f, %.0f], want within ~[8200, 8400]", lo, hi)
	}
}

func TestTable1Row5OcallCold(t *testing.T) {
	f := newFixture(t)
	var ocallCycles uint64
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		// Flush the LLC here so the *ocall* path runs cold, without
		// contaminating the measurement with the ecall's own misses.
		ctx.RT.Platform.Mem.EvictAll()
		start := ctx.Clk.Now()
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	run := func() uint64 {
		var clk sim.Clock
		f.rt.ECall(&clk, "ecall_empty")
		return ocallCycles
	}
	for i := 0; i < 20; i++ {
		run()
	}
	res := sim.Measure(f.p.RNG, 4000, run)
	calWithin(t, "ocall cold median", res.Sample.Median(), 14160, 0.06)
}

func TestTable1Row3EcallBufferTransfer(t *testing.T) {
	// 2 KB buffers: to (in) 9,861 / from (out) 11,712 / to&from (in&out)
	// 10,827.  The `out` target is 11,712 per the Section 3.5 text (the
	// table's 11,172 contradicts the paper's own arithmetic).
	cases := []struct {
		fn     string
		median float64
	}{
		{"ecall_in", 9861},
		{"ecall_out", 11712},
		{"ecall_inout", 10827},
	}
	for _, tc := range cases {
		f := newFixture(t)
		var clk sim.Clock
		buf := f.rt.Arena.AllocBuffer(&clk, 2048)
		currentECall = tc.fn
		s := measureECall(f, 4000, func() {
			// The paper evicts the transferred buffers before each
			// measurement (Section 3.2.1).
			f.p.Mem.EvictRange(buf.Addr, 2048)
		}, func() []Arg { return []Arg{Buf(buf), Scalar(2048)} })
		calWithin(t, tc.fn+" 2KB median", s.Median(), tc.median, 0.04)
	}
}

func TestTable1Row6OcallBufferTransfer(t *testing.T) {
	// 2 KB buffers: to (in) 9,252 / from (out) 11,418 / to&from 9,801.
	cases := []struct {
		fn     string
		median float64
	}{
		{"ocall_in", 9252},
		{"ocall_out", 11418},
		{"ocall_inout", 9801},
	}
	for _, tc := range cases {
		f := newFixture(t)
		ebuf := f.enclaveBuf(t, 2048)
		var ocallCycles uint64
		fn := tc.fn
		f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
			start := ctx.Clk.Now()
			if _, err := ctx.OCall(fn, Buf(ebuf), Scalar(2048)); err != nil {
				panic(err)
			}
			ocallCycles = ctx.Clk.Since(start)
			return 0
		})
		run := func() uint64 {
			var clk sim.Clock
			f.rt.ECall(&clk, "ecall_empty")
			return ocallCycles
		}
		for i := 0; i < 50; i++ {
			run()
		}
		res := sim.Measure(f.p.RNG, 4000, run)
		calWithin(t, tc.fn+" 2KB median", res.Sample.Median(), tc.median, 0.04)
	}
}

func TestNoRedundantZeroingSavesMemsetCost(t *testing.T) {
	// Removing the redundant zeroing of the untrusted [out] staging
	// buffer should save roughly the byte-wise memset cost (~2 KB cycles
	// for a 2 KB buffer).
	measure := func(nrz bool) float64 {
		f := newFixture(t)
		f.rt.NoRedundantZeroing = nrz
		ebuf := f.enclaveBuf(t, 2048)
		var ocallCycles uint64
		f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
			start := ctx.Clk.Now()
			ctx.OCall("ocall_out", Buf(ebuf), Scalar(2048))
			ocallCycles = ctx.Clk.Since(start)
			return 0
		})
		run := func() uint64 {
			var clk sim.Clock
			f.rt.ECall(&clk, "ecall_empty")
			return ocallCycles
		}
		for i := 0; i < 50; i++ {
			run()
		}
		return sim.Measure(f.p.RNG, 2000, run).Sample.Median()
	}
	base := measure(false)
	nrz := measure(true)
	saving := base - nrz
	if saving < 1800 || saving > 2600 {
		t.Errorf("NRZ saving = %.0f cycles, want ~2,100 for a 2 KB buffer", saving)
	} else {
		t.Logf("NRZ saves %.0f cycles on a 2 KB ocall [out]", saving)
	}
}

func TestFigure4BufferSizeScaling(t *testing.T) {
	// Ecall buffer-transfer cost must grow with size, with `out` the
	// most expensive direction at every size (Figure 4's shape).
	sizes := []uint64{1024, 2048, 4096, 8192, 16384}
	prev := map[string]float64{}
	for _, size := range sizes {
		for _, fn := range []string{"ecall_in", "ecall_out", "ecall_inout"} {
			f := newFixture(t)
			var clk sim.Clock
			buf := f.rt.Arena.AllocBuffer(&clk, size)
			currentECall = fn
			sz := size
			s := measureECall(f, 300, func() {
				f.p.Mem.EvictRange(buf.Addr, sz)
			}, func() []Arg { return []Arg{Buf(buf), Scalar(sz)} })
			med := s.Median()
			if med < prev[fn] {
				t.Errorf("%s at %d bytes (%.0f) cheaper than smaller size (%.0f)", fn, size, med, prev[fn])
			}
			prev[fn] = med
		}
		if !(prev["ecall_out"] > prev["ecall_inout"] && prev["ecall_inout"] > prev["ecall_in"]) {
			t.Errorf("size %d: direction ordering wrong: %v", size, prev)
		}
	}
}
