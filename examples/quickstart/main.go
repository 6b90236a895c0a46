// Quickstart: build an enclave, declare its edge interface in EDL, and
// compare the three ways to cross the boundary — a regular SDK ocall
// (8,000+ cycles), a HotCall (~620 cycles), and, for scale, a plain
// syscall (150 cycles).  It also runs the *real* concurrent HotCalls
// implementation (spin-lock + responder goroutine) end to end.
package main

import (
	"fmt"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/osapi"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

const quickstartEDL = `
enclave {
    trusted {
        public int ecall_sum([in, size=len] uint8_t* data, size_t len);
    };
    untrusted {
        long ocall_log([in, string] char* msg);
        long ocall_nop(void);
    };
};
`

func main() {
	// 1. A platform with fused keys and the paper's memory hierarchy.
	platform := sgx.NewPlatform(42)
	var clk sim.Clock

	// 2. Build and measure the enclave: ECREATE, EADD+EEXTEND per page,
	// EINIT.
	enclave := platform.ECreate(&clk, 64<<20, 2, sgx.Attributes{ProdID: 1, SVN: 1})
	code := make([]byte, sgx.PageSize)
	copy(code, "trusted application code v1")
	if err := enclave.EAdd(&clk, 0, code); err != nil {
		panic(err)
	}
	if err := enclave.EInit(&clk); err != nil {
		panic(err)
	}
	fmt.Printf("enclave built: MRENCLAVE=%v (load cost: %d cycles)\n\n", enclave.MRENCLAVE(), clk.Now())

	// 3. Bind the edge functions declared in the EDL.
	rt := sdk.New(platform, enclave, edl.MustParse(quickstartEDL))
	rt.MustBindECall("ecall_sum", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		var sum uint64
		for _, b := range args[0].Buf.Data {
			sum += uint64(b)
		}
		// Trusted code reaching out: an ocall.  The [in, string]
		// message must live inside the enclave — the marshalling
		// enforces the boundary.
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

	// 4. Call into the enclave through the SDK path.
	buf := rt.Arena.AllocBuffer(&clk, 1024)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	var callClk sim.Clock
	sum, err := rt.ECall(&callClk, "ecall_sum", sdk.Buf(buf), sdk.Scalar(1024))
	if err != nil {
		panic(err)
	}
	fmt.Printf("ecall_sum(1 KB) = %d in %d cycles (includes one nested ocall)\n", sum, callClk.Now())

	// 5. Latency shootout: SDK ocall vs HotCall vs raw syscall.
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
		ctx.OCall("ocall_nop")
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	sdkMedian := median(func() uint64 {
		var c sim.Clock
		rt.ECall(&c, "ecall_sum", sdk.Buf(buf), sdk.Scalar(8))
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

	fmt.Println("\ncrossing the boundary, median cycles:")
	fmt.Printf("  plain syscall     %8d\n", osapi.SyscallCost)
	fmt.Printf("  KVM hypercall     %8d\n", osapi.HypercallCost)
	fmt.Printf("  SDK ocall         %8.0f\n", sdkMedian)
	fmt.Printf("  HotCall           %8.0f   (%.1fx faster than the SDK)\n", hotMedian, sdkMedian/hotMedian)

	// 6. The real concurrent implementation: a responder goroutine
	// polling shared memory behind a spin lock.
	var hc core.HotCall
	responder := core.NewResponder(&hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) * d.(uint64) },
	})
	done := make(chan struct{})
	go func() { responder.Run(); close(done) }()
	r, err := hc.Call(0, uint64(12))
	if err != nil {
		panic(err)
	}
	hc.Stop()
	<-done // the counts are exact once Run has returned
	polls, executes := responder.Stats()
	fmt.Printf("\nreal HotCall responder: 12^2 = %d (polls=%d, executes=%d)\n", r, polls, executes)
}
