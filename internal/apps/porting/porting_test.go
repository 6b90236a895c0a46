package porting

import (
	"errors"
	"math"
	"testing"

	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

const portEDL = `
enclave {
    trusted {
        public int ecall_entry(void);
    };
    untrusted {
        long ocall_work([out, size=len] uint8_t* buf, size_t len);
        long ocall_nop(void);
    };
};
`

func newApp(t testing.TB, mode Mode) *App {
	t.Helper()
	app := New(mode, Config{Seed: 99}, portEDL)
	app.RT.MustBindOCall("ocall_work", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] = byte(i)
		}
		return uint64(len(args[0].Buf.Data))
	})
	app.RT.MustBindOCall("ocall_nop", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 })
	return app
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		Native: "native", SGX: "sgx", HotCalls: "hotcalls", HotCallsNRZ: "hotcalls+nrz",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode should format numerically")
	}
}

func TestCallRoutesPerMode(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			app := newApp(t, mode)
			called := false
			app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
				called = true
				if _, err := env.OCall("ocall_nop"); err != nil {
					t.Errorf("ocall in %s: %v", mode, err)
				}
				return 11
			})
			var clk sim.Clock
			ret, err := app.Call(&clk, "ecall_entry")
			if err != nil || ret != 11 || !called {
				t.Fatalf("Call = (%d, %v), called=%v", ret, err, called)
			}
			c := app.Counters()
			if c["ecall_entry"] != 1 || c["ocall_nop"] != 1 {
				t.Fatalf("counters = %v", c)
			}
		})
	}
}

func TestOCallDataPathPerMode(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			app := newApp(t, mode)
			app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
				buf := env.App.AllocBuffer(env.Clk, 64)
				ret, err := env.OCall("ocall_work", sdk.Buf(buf), sdk.Scalar(64))
				if err != nil {
					t.Errorf("%s: %v", mode, err)
					return 0
				}
				for i, b := range buf.Data {
					if b != byte(i) {
						t.Errorf("%s: buf[%d] = %d", mode, i, b)
						break
					}
				}
				return ret
			})
			var clk sim.Clock
			ret, err := app.Call(&clk, "ecall_entry")
			if err != nil || ret != 64 {
				t.Fatalf("Call = (%d, %v)", ret, err)
			}
		})
	}
}

func TestCallCostOrdering(t *testing.T) {
	// The whole point of the paper: native < hotcalls << sgx.
	cost := map[Mode]uint64{}
	for _, mode := range Modes {
		app := newApp(t, mode)
		app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
			env.OCall("ocall_nop")
			return 0
		})
		// Warm up, then measure.
		var warm sim.Clock
		for i := 0; i < 20; i++ {
			app.Call(&warm, "ecall_entry")
		}
		var clk sim.Clock
		app.Call(&clk, "ecall_entry")
		cost[mode] = clk.Now()
	}
	if !(cost[Native] < cost[HotCalls] && cost[HotCalls] < cost[SGX]) {
		t.Fatalf("cost ordering violated: %v", cost)
	}
	if ratio := float64(cost[SGX]) / float64(cost[HotCalls]); ratio < 5 {
		t.Errorf("SGX/HotCalls call ratio = %.1f, want large", ratio)
	}
}

func TestNativeUnboundCall(t *testing.T) {
	app := newApp(t, Native)
	var clk sim.Clock
	if _, err := app.Call(&clk, "ecall_entry"); !errors.Is(err, sdk.ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestNativeOCallUnknown(t *testing.T) {
	app := newApp(t, Native)
	app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
		if _, err := env.OCall("ocall_missing"); err == nil {
			t.Error("unknown ocall accepted in native mode")
		}
		return 0
	})
	var clk sim.Clock
	app.Call(&clk, "ecall_entry")
}

func TestAllocBufferPlacement(t *testing.T) {
	var clk sim.Clock
	native := newApp(t, Native)
	nb := native.AllocBuffer(&clk, 64)
	if native.Platform.Mem.IsEnclave(nb.Addr) {
		t.Error("native buffer placed in enclave memory")
	}
	secure := newApp(t, SGX)
	sb := secure.AllocBuffer(&clk, 64)
	if !secure.Platform.Mem.IsEnclave(sb.Addr) {
		t.Error("secure buffer placed in plain memory")
	}
	if !secure.Enclave.InRange(sb.Addr, 64) {
		t.Error("secure buffer outside the enclave range")
	}
}

func TestReserveRegionDisjointAndTyped(t *testing.T) {
	app := newApp(t, SGX)
	a := app.ReserveRegion(1 << 20)
	b := app.ReserveRegion(1 << 20)
	if b < a+(1<<20) {
		t.Fatal("regions overlap")
	}
	if !app.Platform.Mem.IsEnclave(a) {
		t.Fatal("secure-mode region not EPC-backed")
	}
	plain := newApp(t, Native)
	if plain.Platform.Mem.IsEnclave(plain.ReserveRegion(1 << 20)) {
		t.Fatal("native region placed in enclave space")
	}
}

func TestTLBRefillOnlyUnderSGX(t *testing.T) {
	costs := map[Mode]uint64{}
	for _, mode := range []Mode{SGX, HotCalls, Native} {
		app := newApp(t, mode)
		app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
			env.OCall("ocall_nop")
			before := env.Clk.Now()
			env.TouchPages(10)
			costs[mode] = env.Clk.Since(before)
			return 0
		})
		var warm sim.Clock
		for i := 0; i < 5; i++ {
			app.Call(&warm, "ecall_entry")
		}
	}
	if costs[SGX] < 10*300 {
		t.Errorf("SGX TLB refill charged %d, want >= 3,500", costs[SGX])
	}
	if costs[HotCalls] != 0 || costs[Native] != 0 {
		t.Errorf("non-SDK modes charged TLB refills: %v", costs)
	}
}

func TestTLBChargedOncePerFlush(t *testing.T) {
	app := newApp(t, SGX)
	var first, second uint64
	app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
		env.OCall("ocall_nop")
		b := env.Clk.Now()
		env.TouchPages(5)
		first = env.Clk.Since(b)
		b = env.Clk.Now()
		env.TouchPages(5) // TLB already warm: free
		second = env.Clk.Since(b)
		return 0
	})
	var clk sim.Clock
	app.Call(&clk, "ecall_entry")
	if first == 0 || second != 0 {
		t.Fatalf("TLB refill charges: first=%d second=%d, want >0 then 0", first, second)
	}
}

func TestRunClosedLoopLittlesLaw(t *testing.T) {
	// With constant service time S and N outstanding, throughput = 1/S
	// and latency = N*S.
	const service = 20000 // cycles
	const n = 50
	m := RunClosedLoop(n, sim.Cycles(0.01), func(clk *sim.Clock) {
		clk.Advance(service)
	})
	wantX := sim.FrequencyHz / float64(service)
	if math.Abs(m.Throughput-wantX)/wantX > 0.01 {
		t.Errorf("throughput = %.0f, want %.0f", m.Throughput, wantX)
	}
	wantL := float64(n) * sim.Seconds(service)
	if math.Abs(m.AvgLatency-wantL)/wantL > 0.05 {
		t.Errorf("latency = %v, want %v", m.AvgLatency, wantL)
	}
	// Little's law: X * R = N.
	if got := m.Throughput * m.AvgLatency; math.Abs(got-n)/n > 0.05 {
		t.Errorf("X*R = %.1f, want %d", got, n)
	}
}

func TestRunClosedLoopPercentiles(t *testing.T) {
	m := RunClosedLoop(10, sim.Cycles(0.002), func(clk *sim.Clock) {
		clk.Advance(10000)
	})
	if m.P50Latency > m.P99Latency {
		t.Fatal("p50 > p99")
	}
	if m.Requests == 0 || m.SimSeconds <= 0 {
		t.Fatal("empty metrics")
	}
}

func TestRunClosedLoopPanicsOnBadConcurrency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunClosedLoop(0, 1000, func(clk *sim.Clock) {})
}

func TestAEXInjectionDegradesGracefully(t *testing.T) {
	throughput := func(rate float64) float64 {
		app := newApp(t, SGX)
		app.SetAEXRate(rate)
		app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
			env.OCall("ocall_nop")
			env.Clk.Advance(20000)
			return 0
		})
		m := RunClosedLoop(10, sim.Cycles(0.005), func(clk *sim.Clock) {
			app.ServeWithAEX(clk, func(clk *sim.Clock) {
				if _, err := app.Call(clk, "ecall_entry"); err != nil {
					t.Fatal(err)
				}
			})
		})
		return m.Throughput
	}
	quiet := throughput(0)
	normal := throughput(500)
	storm := throughput(200000)
	t.Logf("req/s: quiet %.0f, 500 AEX/s %.0f, 200k AEX/s %.0f", quiet, normal, storm)
	// An idle-server interrupt rate is in the noise; a storm hurts.
	if normal < quiet*0.97 {
		t.Errorf("500 AEX/s cost %.1f%%, should be negligible", (1-normal/quiet)*100)
	}
	if storm > quiet*0.85 {
		t.Errorf("AEX storm only cost %.1f%%, should be visible", (1-storm/quiet)*100)
	}
	if storm < quiet*0.2 {
		t.Errorf("AEX storm collapsed throughput to %.1f%%: model too harsh", storm/quiet*100)
	}
}

func TestAEXDisabledForNative(t *testing.T) {
	app := newApp(t, Native)
	app.SetAEXRate(1e6)
	var clk sim.Clock
	if hits := app.injectAEX(&clk, 1<<30); hits != 0 || clk.Now() != 0 {
		t.Fatal("AEX injected into a native (non-enclave) run")
	}
}
