// Benchmark harness: one testing.B benchmark per table/figure of the
// paper, plus real-mechanism benchmarks for the concurrent HotCalls
// implementation.  The simulated benchmarks report the modelled cost via
// b.ReportMetric (sim-cycles/op); wall-clock ns/op measures the simulator
// itself.  Run with:
//
//	go test -bench=. -benchmem
package hotcalls_test

import (
	"sync"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/mem"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
	"hotcalls/internal/spec"
)

const benchEDL = `
enclave {
    trusted {
        public int ecall_empty(void);
        public int ecall_in([in, size=len] uint8_t* buf, size_t len);
        public int ecall_out([out, size=len] uint8_t* buf, size_t len);
        public int ecall_driver(void);
    };
    untrusted {
        int ocall_empty(void);
        int ocall_out([out, size=len] uint8_t* buf, size_t len);
    };
};
`

type benchFixture struct {
	p  *sgx.Platform
	e  *sgx.Enclave
	rt *sdk.Runtime
}

func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	p := sgx.NewPlatform(777)
	var clk sim.Clock
	e := p.ECreate(&clk, 64<<20, 2, sgx.Attributes{})
	if err := e.EAdd(&clk, 0, make([]byte, sgx.PageSize)); err != nil {
		b.Fatal(err)
	}
	if err := e.EInit(&clk); err != nil {
		b.Fatal(err)
	}
	rt := sdk.New(p, e, edl.MustParse(benchEDL))
	noop := func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 }
	rt.MustBindECall("ecall_empty", noop)
	rt.MustBindECall("ecall_in", noop)
	rt.MustBindECall("ecall_out", noop)
	rt.MustBindOCall("ocall_empty", noop)
	rt.MustBindOCall("ocall_out", noop)
	return &benchFixture{p: p, e: e, rt: rt}
}

func reportSimCycles(b *testing.B, total uint64) {
	b.ReportMetric(float64(total)/float64(b.N), "sim-cycles/op")
}

// BenchmarkTable1EcallWarm covers Table 1 row 1.
func BenchmarkTable1EcallWarm(b *testing.B) {
	f := newBenchFixture(b)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, "ecall_empty"); err != nil {
			b.Fatal(err)
		}
		total += clk.Now()
	}
	reportSimCycles(b, total)
}

// BenchmarkTable1EcallCold covers Table 1 row 2.
func BenchmarkTable1EcallCold(b *testing.B) {
	f := newBenchFixture(b)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.p.Mem.EvictAll()
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, "ecall_empty"); err != nil {
			b.Fatal(err)
		}
		total += clk.Now()
	}
	reportSimCycles(b, total)
}

// BenchmarkTable1EcallBuffer2KB covers Table 1 row 3 (Figure 4 at 2 KB).
func BenchmarkTable1EcallBuffer2KB(b *testing.B) {
	for _, dir := range []string{"in", "out"} {
		b.Run(dir, func(b *testing.B) {
			f := newBenchFixture(b)
			var clk sim.Clock
			buf := f.rt.Arena.AllocBuffer(&clk, 2048)
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.p.Mem.EvictRange(buf.Addr, 2048)
				var c sim.Clock
				if _, err := f.rt.ECall(&c, "ecall_"+dir, sdk.Buf(buf), sdk.Scalar(2048)); err != nil {
					b.Fatal(err)
				}
				total += c.Now()
			}
			reportSimCycles(b, total)
		})
	}
}

// BenchmarkTable1Ocall covers Table 1 rows 4-6 (Figures 2b and 5).
func BenchmarkTable1Ocall(b *testing.B) {
	f := newBenchFixture(b)
	var ocallCycles uint64
	f.rt.MustBindECall("ecall_driver", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		start := ctx.Clk.Now()
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var clk sim.Clock
		if _, err := f.rt.ECall(&clk, "ecall_driver"); err != nil {
			b.Fatal(err)
		}
		total += ocallCycles
	}
	reportSimCycles(b, total)
}

// BenchmarkFig3HotCallModel covers Figure 3: the calibrated HotCall cycle
// model through the full marshalling path.
func BenchmarkFig3HotCallModel(b *testing.B) {
	f := newBenchFixture(b)
	ch := core.NewChannel(f.rt, f.p.RNG)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var clk sim.Clock
		if _, err := ch.HotOCall(&clk, "ocall_empty"); err != nil {
			b.Fatal(err)
		}
		total += clk.Now()
	}
	reportSimCycles(b, total)
}

// BenchmarkFig3HotCallReal measures the real spin-lock shared-memory
// round trip between two goroutines — the mechanism itself, in wall-clock
// nanoseconds.
func BenchmarkFig3HotCallReal(b *testing.B) {
	var hc core.HotCall
	hc.Timeout = 1 << 30
	responder := core.NewResponder(&hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return 1 },
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		responder.Run()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hc.Call(0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hc.Stop()
	wg.Wait()
}

// BenchmarkGoChannelRoundTrip is the ablation baseline for the real
// HotCall: the idiomatic Go alternative (two channels).
func BenchmarkGoChannelRoundTrip(b *testing.B) {
	req := make(chan int)
	resp := make(chan int)
	go func() {
		for v := range req {
			resp <- v + 1
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req <- i
		<-resp
	}
	b.StopTimer()
	close(req)
}

// BenchmarkFig6MemoryRead covers Figure 6 / Table 1 row 7.
func BenchmarkFig6MemoryRead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		base uint64
	}{{"plaintext", mem.PlainBase + (1 << 28)}, {"encrypted", mem.EnclaveBase}} {
		b.Run(cfg.name, func(b *testing.B) {
			rng := sim.NewRNG(55)
			s := mem.New(rng)
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.EvictRange(cfg.base, 2048)
				var clk sim.Clock
				s.StreamRead(&clk, cfg.base, 2048)
				s.MFence(&clk)
				total += clk.Now()
			}
			reportSimCycles(b, total)
		})
	}
}

// BenchmarkFig7MemoryWrite covers Figure 7 / Table 1 row 8.
func BenchmarkFig7MemoryWrite(b *testing.B) {
	rng := sim.NewRNG(56)
	s := mem.New(rng)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvictRange(mem.EnclaveBase, 2048)
		var clk sim.Clock
		s.StreamWrite(&clk, mem.EnclaveBase, 2048)
		s.FlushRange(&clk, mem.EnclaveBase, 2048)
		s.MFence(&clk)
		total += clk.Now()
	}
	reportSimCycles(b, total)
}

// BenchmarkFig8SpecKernels covers Figure 8's SPEC bars.
func BenchmarkFig8SpecKernels(b *testing.B) {
	for _, k := range spec.Kernels {
		if k.Name == "libquantum" {
			continue // dominated by a 96 MB sweep; too slow per-op here
		}
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Run(uint64(i), 1)
			}
		})
	}
}

// BenchmarkFig10Apps covers Figures 10/11 and Table 2: one served request
// (or forwarded packet) per iteration, per application and interface.
func BenchmarkFig10Apps(b *testing.B) {
	b.Run("memcached", func(b *testing.B) {
		for _, mode := range []porting.Mode{porting.Native, porting.SGX, porting.HotCallsNRZ} {
			b.Run(mode.String(), func(b *testing.B) {
				w := memcached.NewWorkload(memcached.NewServer(mode), 7)
				var clk sim.Clock
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Step(&clk)
				}
				reportSimCycles(b, clk.Now())
			})
		}
	})
	b.Run("openvpn", func(b *testing.B) {
		s := openvpn.NewServer(porting.HotCallsNRZ)
		seal := openvpn.SessionCipher()
		payload := make([]byte, openvpn.IperfPayload)
		var clk sim.Clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ServePacket(&clk, seal, payload, false)
		}
		reportSimCycles(b, clk.Now())
	})
	b.Run("lighttpd", func(b *testing.B) {
		s := lighttpd.NewServer(porting.HotCallsNRZ)
		var clk sim.Clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Fetch(&clk, "/")
		}
		reportSimCycles(b, clk.Now())
	})
}

// BenchmarkSpinLock measures the sgx_spin_lock equivalent under no
// contention (the HotCalls fast path).
func BenchmarkSpinLock(b *testing.B) {
	var l sdk.SpinLock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}
