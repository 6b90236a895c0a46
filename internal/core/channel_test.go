package core

import (
	"testing"

	"hotcalls/internal/edl"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

const chanEDL = `
enclave {
    trusted {
        public int ecall_work([in, out, size=len] uint8_t* buf, size_t len);
        public int ecall_empty(void);
    };
    untrusted {
        int ocall_empty(void);
        int ocall_read([out, size=cap] uint8_t* buf, size_t cap);
        int ocall_send([in, size=len] uint8_t* buf, size_t len);
    };
};
`

type chanFixture struct {
	p  *sgx.Platform
	e  *sgx.Enclave
	rt *sdk.Runtime
	ch *Channel
}

func newChanFixture(t testing.TB) *chanFixture {
	t.Helper()
	p := sgx.NewPlatform(7)
	var clk sim.Clock
	e := p.ECreate(&clk, 64<<20, 2)
	e.EAdd(&clk, 0)
	if err := e.EInit(&clk); err != nil {
		t.Fatal(err)
	}
	rt := sdk.New(p, e, edl.MustParse(chanEDL))
	rt.MustBindECall("ecall_empty", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 3 })
	rt.MustBindECall("ecall_work", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] += 1
		}
		return 0
	})
	rt.MustBindOCall("ocall_empty", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 5 })
	rt.MustBindOCall("ocall_read", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] = byte(i)
		}
		return uint64(len(args[0].Buf.Data))
	})
	rt.MustBindOCall("ocall_send", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		var sum uint64
		for _, b := range args[0].Buf.Data {
			sum += uint64(b)
		}
		return sum
	})
	return &chanFixture{p: p, e: e, rt: rt, ch: NewChannel(rt, p.RNG)}
}

func (f *chanFixture) enclaveBuf(t testing.TB, size int) *sdk.Buffer {
	t.Helper()
	var clk sim.Clock
	addr, err := f.e.Alloc(&clk, uint64(size))
	if err != nil {
		t.Fatal(err)
	}
	return &sdk.Buffer{Addr: addr, Data: make([]byte, size)}
}

func TestHotOCallDataPath(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	dst := f.enclaveBuf(t, 64)
	ret, err := f.ch.HotOCall(&clk, "ocall_read", sdk.Buf(dst), sdk.Scalar(64))
	if err != nil {
		t.Fatal(err)
	}
	if ret != 64 {
		t.Fatalf("ret = %d", ret)
	}
	for i, b := range dst.Data {
		if b != byte(i) {
			t.Fatalf("dst[%d] = %d", i, b)
		}
	}
}

func TestHotOCallSendSums(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	src := f.enclaveBuf(t, 100)
	var want uint64
	for i := range src.Data {
		src.Data[i] = byte(i * 5)
		want += uint64(byte(i * 5))
	}
	ret, err := f.ch.HotOCall(&clk, "ocall_send", sdk.Buf(src), sdk.Scalar(100))
	if err != nil {
		t.Fatal(err)
	}
	if ret != want {
		t.Fatalf("sum = %d, want %d", ret, want)
	}
}

func TestHotECallDataPath(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 32)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	if _, err := f.ch.HotECall(&clk, "ecall_work", sdk.Buf(buf), sdk.Scalar(32)); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf.Data {
		if b != byte(i)+1 {
			t.Fatalf("buf[%d] = %d", i, b)
		}
	}
}

func TestHotCallSpeedupOverSDK(t *testing.T) {
	// The headline claim: HotCalls are 13-27x faster than SDK calls.
	f := newChanFixture(t)

	// Warm both paths.
	var warm sim.Clock
	for i := 0; i < 50; i++ {
		f.ch.HotOCall(&warm, "ocall_empty")
	}
	hot := sim.Measure(f.p.RNG, 5000, func() uint64 {
		var clk sim.Clock
		if _, err := f.ch.HotOCall(&clk, "ocall_empty"); err != nil {
			panic(err)
		}
		return clk.Now()
	}).Sample.Median()

	var ocallCycles uint64
	f.rt.MustBindECall("ecall_empty", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		start := ctx.Clk.Now()
		if _, err := ctx.OCall("ocall_empty"); err != nil {
			panic(err)
		}
		ocallCycles = ctx.Clk.Since(start)
		return 0
	})
	for i := 0; i < 50; i++ {
		var clk sim.Clock
		f.rt.ECall(&clk, "ecall_empty")
	}
	sdkCost := sim.Measure(f.p.RNG, 5000, func() uint64 {
		var clk sim.Clock
		f.rt.ECall(&clk, "ecall_empty")
		return ocallCycles
	}).Sample.Median()

	speedup := sdkCost / hot
	t.Logf("hot ocall median = %.0f, SDK ocall median = %.0f, speedup = %.1fx", hot, sdkCost, speedup)
	if speedup < 10 || speedup > 30 {
		t.Errorf("speedup = %.1fx, paper reports 13-27x", speedup)
	}
}

func TestHotCallCountersRecorded(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	f.ch.HotOCall(&clk, "ocall_empty")
	f.ch.HotOCall(&clk, "ocall_empty")
	f.ch.HotECall(&clk, "ecall_empty")
	c := f.rt.Counters()
	if c["ocall_empty"] != 2 || c["ecall_empty"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestHotOCallSecurityChecksStillApply(t *testing.T) {
	// HotCalls reuse the SDK marshalling, so boundary checks must be
	// enforced identically (Section 5).
	f := newChanFixture(t)
	var clk sim.Clock
	outside := f.rt.Arena.AllocBuffer(&clk, 64)
	if _, err := f.ch.HotOCall(&clk, "ocall_send", sdk.Buf(outside), sdk.Scalar(64)); err == nil {
		t.Fatal("hot ocall accepted an out-of-enclave source buffer")
	}
}

func TestHotOCallUnknown(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	if _, err := f.ch.HotOCall(&clk, "nope"); err == nil {
		t.Fatal("unknown hot ocall accepted")
	}
	if _, err := f.ch.HotECall(&clk, "nope"); err == nil {
		t.Fatal("unknown hot ecall accepted")
	}
}

// TestNestedCallsStageInLIFOOrder nests every staged call shape four deep —
// an SDK ocall inside an SDK ecall inside a HotOCall inside a HotECall —
// with a pointer parameter staged at each level.  Staging memory is LIFO
// scratch reused from call to call, so each level checks that its own
// staged bytes survived the calls beneath it, and the outputs of all four
// must reach their callers.  Run twice: the second pass reuses the frames
// and scratch the first one grew.
func TestNestedCallsStageInLIFOOrder(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	level2 := f.enclaveBuf(t, 40) // [out] of the HotOCall
	level4 := f.enclaveBuf(t, 24) // [in] of the SDK ocall
	var level3 *sdk.Buffer        // [in, out] of the SDK ecall
	level := 0
	var sent uint64

	f.rt.MustBindECall("ecall_work", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		level++
		defer func() { level-- }()
		mine := args[0].Buf.Data
		want := byte(0x10 * level) // 0x10 under the HotECall, 0x30 under the SDK ecall
		var err error
		if level == 1 {
			_, err = ctx.OCall("ocall_read", sdk.Buf(level2), sdk.Scalar(40)) // routed: HotOCall
		} else {
			sent, err = ctx.OCall("ocall_send", sdk.Buf(level4), sdk.Scalar(24)) // SDK ocall
		}
		if err != nil {
			t.Errorf("level %d: %v", level, err)
		}
		for i, b := range mine {
			if b != want {
				t.Errorf("level %d: staged byte %d = %#x after the nested call, want %#x", level, i, b, want)
				break
			}
			mine[i] = want + 1
		}
		return 0
	})
	f.rt.MustBindOCall("ocall_read", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		level++
		defer func() { level-- }()
		mine := args[0].Buf.Data
		for i := range mine {
			mine[i] = 0x20
		}
		if _, err := ctx.RT.ECall(ctx.Clk, "ecall_work", sdk.Buf(level3), sdk.Scalar(uint64(len(level3.Data)))); err != nil {
			t.Errorf("level %d: %v", level, err)
		}
		for i, b := range mine {
			if b != 0x20 {
				t.Errorf("level %d: staged byte %d = %#x after the nested call, want 0x20", level, i, b)
				break
			}
		}
		return 0
	})

	for pass := 0; pass < 2; pass++ {
		level1 := f.rt.Arena.AllocBuffer(&clk, 56)
		level3 = f.rt.Arena.AllocBuffer(&clk, 32)
		fill := func(b *sdk.Buffer, v byte) {
			for i := range b.Data {
				b.Data[i] = v
			}
		}
		fill(level1, 0x10)
		fill(level2, 0xee)
		fill(level3, 0x30)
		fill(level4, 0x02)
		sent = 0
		if _, err := f.ch.HotECall(&clk, "ecall_work", sdk.Buf(level1), sdk.Scalar(56)); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			buf  *sdk.Buffer
			want byte
		}{"HotECall [in,out]": {level1, 0x11}, "HotOCall [out]": {level2, 0x20}, "ecall [in,out]": {level3, 0x31}} {
			for i, b := range c.buf.Data {
				if b != c.want {
					t.Fatalf("pass %d: %s byte %d = %#x, want %#x", pass, name, i, b, c.want)
				}
			}
		}
		if sent != 24*0x02 {
			t.Fatalf("pass %d: innermost ocall summed %d, want %d", pass, sent, 24*0x02)
		}
	}
}
