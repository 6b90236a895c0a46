package hotcalls_test

import (
	"fmt"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/osapi"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

// Example_quickstart builds an enclave, declares its edge interface in
// EDL, calls into it through the SDK with a nested ocall, and compares the
// ways to cross the boundary: a regular SDK ocall (8,000+ cycles), a
// HotCall (~620 cycles), and, for scale, a plain syscall.  Every number is
// simulated cycles on a seeded platform, so the output is exact.  The real
// concurrent responder is ExampleHotCall in internal/core.
func Example_quickstart() {
	// A platform with the paper's memory hierarchy.
	platform := sgx.NewPlatform(42)
	var clk sim.Clock

	// Build the enclave: ECREATE, EADD+EEXTEND for one page, EINIT.
	enclave := platform.ECreate(&clk, 64<<20, 2)
	if err := enclave.EAdd(&clk, 0); err != nil {
		panic(err)
	}
	if err := enclave.EInit(&clk); err != nil {
		panic(err)
	}
	fmt.Printf("enclave built in %d cycles\n", clk.Now())

	// Bind the edge functions declared in the EDL.
	rt := sdk.New(platform, enclave, edl.MustParse(`
enclave {
    trusted {
        public int ecall_sum([in, size=len] uint8_t* data, size_t len);
    };
    untrusted {
        long ocall_log([in, string] char* msg);
        long ocall_nop(void);
    };
};`))
	rt.MustBindECall("ecall_sum", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		var sum uint64
		for _, b := range args[0].Buf.Data {
			sum += uint64(b)
		}
		// Trusted code reaching out: the [in, string] message must live
		// inside the enclave, which the marshalling enforces.
		addr, err := enclave.Alloc(ctx.Clk, 16)
		if err != nil {
			panic(err)
		}
		msg := &sdk.Buffer{Addr: addr, Data: []byte("summed\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")}
		if _, err := ctx.OCall("ocall_log", sdk.Buf(msg)); err != nil {
			panic(err)
		}
		return sum
	})
	rt.MustBindOCall("ocall_log", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 })
	rt.MustBindOCall("ocall_nop", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 })

	// Call into the enclave through the SDK path.
	buf := rt.Arena.AllocBuffer(&clk, 1024)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	var callClk sim.Clock
	sum, err := rt.ECall(&callClk, "ecall_sum", sdk.Buf(buf), sdk.Scalar(1024))
	if err != nil {
		panic(err)
	}
	fmt.Printf("ecall_sum(1 KB) = %d in %d cycles, one nested ocall included\n", sum, callClk.Now())

	// Latency shootout: the median of 2,000 SDK ocalls against 2,000
	// HotCalls.
	median := func(f func() uint64) float64 {
		s := sim.NewSample(2000)
		for i := 0; i < 2000; i++ {
			s.AddCycles(f())
		}
		return s.Median()
	}
	var ocallCycles uint64
	rt.MustBindECall("ecall_sum", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		start := ctx.Clk.Now()
		if _, err := ctx.OCall("ocall_nop"); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	sdkMedian := median(func() uint64 {
		var c sim.Clock
		if _, err := rt.ECall(&c, "ecall_sum", sdk.Buf(buf), sdk.Scalar(8)); err != nil {
			panic(err)
		}
		return ocallCycles
	})
	ch := core.NewChannel(rt, platform.RNG)
	hotMedian := median(func() uint64 {
		var c sim.Clock
		if _, err := ch.HotOCall(&c, "ocall_nop"); err != nil {
			panic(err)
		}
		return c.Now()
	})

	fmt.Println("crossing the boundary, median cycles:")
	fmt.Printf("  plain syscall %6d\n", osapi.SyscallCost)
	fmt.Printf("  SDK ocall     %6.0f\n", sdkMedian)
	fmt.Printf("  HotCall       %6.0f  (%.1fx faster than the SDK)\n", hotMedian, sdkMedian/hotMedian)
	// Output:
	// enclave built in 90100 cycles
	// ecall_sum(1 KB) = 130560 in 42885 cycles, one nested ocall included
	// crossing the boundary, median cycles:
	//   plain syscall    150
	//   SDK ocall       8314
	//   HotCall          565  (14.7x faster than the SDK)
}
