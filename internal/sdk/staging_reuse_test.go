package sdk

import (
	"bytes"
	"testing"

	"hotcalls/internal/sim"
)

// TestReleasedStagingIsPoisoned shows the hook the poison runs rely on: with
// it armed, a staged slice a handler kept past its call reads 0xDB once the
// call has finished and a kept argument list no longer holds the call's
// arguments, while the call itself still sees and returns the right bytes.  (`make test-poison` arms it for every runtime of the sdk, core and
// application suites, where no handler may keep one.)
func TestReleasedStagingIsPoisoned(t *testing.T) {
	f := newFixture(t)
	f.rt.poison = true
	var clk sim.Clock
	var kept []byte
	var keptArgs []Arg
	f.rt.MustBindECall("ecall_inout", func(ctx *Ctx, args []Arg) uint64 {
		kept, keptArgs = args[0].Buf.Data, args
		for i := range kept {
			kept[i] ^= 0xff
		}
		return 0
	})
	buf := f.rt.Arena.AllocBuffer(&clk, 96)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	if _, err := f.rt.ECall(&clk, "ecall_inout", Buf(buf), Scalar(96)); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf.Data {
		if b != byte(i)^0xff {
			t.Fatalf("buf[%d] = %#x: the copy-back read released bytes", i, b)
		}
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 96)) {
		t.Fatalf("a staged slice kept past finish still reads call data: % x ...", kept[:8])
	}
	if keptArgs[0].Buf != nil || keptArgs[1].Scalar == 96 {
		t.Fatalf("an argument list kept past finish still reads the call's arguments: %+v", keptArgs)
	}
}

// TestFreshOutStagingReadsZero pins the functional half of [out] staging:
// the landing function (ocall) and the handler (ecall) see zero bytes in
// both zeroing modes, even though the scratch behind them was just used —
// and poisoned — by an earlier call.  Only the cycle charge of the ocall
// side depends on the mode.
func TestFreshOutStagingReadsZero(t *testing.T) {
	const n = 512
	var cycles [2]uint64
	for i, nrz := range []bool{false, true} {
		f := newFixture(t)
		f.rt.poison = true
		f.rt.NoRedundantZeroing = nrz
		var clk sim.Clock

		// Dirty the scratch both staging paths are about to reuse.
		secret := f.rt.Arena.AllocBuffer(&clk, 2*n)
		for j := range secret.Data {
			secret.Data[j] = 0xA5
		}
		if _, err := f.rt.ECall(&clk, "ecall_in", Buf(secret), Scalar(2*n)); err != nil {
			t.Fatal(err)
		}

		var sawECall, sawOCall []byte
		f.rt.MustBindECall("ecall_out", func(ctx *Ctx, args []Arg) uint64 {
			sawECall = append([]byte(nil), args[0].Buf.Data...)
			return 0
		})
		f.rt.MustBindOCall("ocall_out", func(ctx *Ctx, args []Arg) uint64 {
			sawOCall = append([]byte(nil), args[0].Buf.Data...)
			return 0
		})
		dst := f.enclaveBuf(t, n)
		f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
			start := ctx.Clk.Now()
			if _, err := ctx.OCall("ocall_out", Buf(dst), Scalar(n)); err != nil {
				t.Errorf("ocall_out: %v", err)
			}
			cycles[i] = ctx.Clk.Since(start)
			return 0
		})
		out := f.rt.Arena.AllocBuffer(&clk, n)
		if _, err := f.rt.ECall(&clk, "ecall_out", Buf(out), Scalar(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.rt.ECall(&clk, "ecall_empty"); err != nil {
			t.Fatal(err)
		}
		zero := make([]byte, n)
		if !bytes.Equal(sawECall, zero) {
			t.Errorf("NoRedundantZeroing=%v: ecall [out] staging arrived dirty: % x ...", nrz, sawECall[:8])
		}
		if !bytes.Equal(sawOCall, zero) {
			t.Errorf("NoRedundantZeroing=%v: ocall [out] staging arrived dirty: % x ...", nrz, sawOCall[:8])
		}
	}
	if cycles[1] >= cycles[0] {
		t.Errorf("ocall [out] cost %d cycles without the redundant zeroing, %d with it: the charge must stay mode-dependent",
			cycles[1], cycles[0])
	}
}

// TestNestedStagingIsLIFO walks an ecall whose handler calls out while its
// own parameter is staged: the inner call stages above the outer one, its
// release leaves the outer bytes alone, and the runtime is back at depth 0
// with an empty scratch afterwards.  Finishing the outer call first is a
// bug in the caller and panics.
func TestNestedStagingIsLIFO(t *testing.T) {
	f := newFixture(t)
	f.rt.poison = true
	var clk sim.Clock
	inner := f.enclaveBuf(t, 48)
	for i := range inner.Data {
		inner.Data[i] = 0x10
	}
	f.rt.MustBindECall("ecall_inout", func(ctx *Ctx, args []Arg) uint64 {
		mine := args[0].Buf.Data
		depth, top := f.rt.depth, f.rt.scratchTop
		if _, err := ctx.OCall("ocall_inout", Buf(inner), Scalar(48)); err != nil {
			t.Errorf("ocall_inout: %v", err)
		}
		if f.rt.depth != depth || f.rt.scratchTop != top {
			t.Errorf("after the inner call: depth %d, scratch top %d; before it: %d, %d", f.rt.depth, f.rt.scratchTop, depth, top)
		}
		for i, b := range mine {
			if b != byte(i) {
				t.Errorf("outer staged byte %d = %#x after the inner call finished, want %#x", i, b, byte(i))
				break
			}
			mine[i] = b + 1
		}
		return 0
	})
	outer := f.rt.Arena.AllocBuffer(&clk, 80)
	for i := range outer.Data {
		outer.Data[i] = byte(i)
	}
	if _, err := f.rt.ECall(&clk, "ecall_inout", Buf(outer), Scalar(80)); err != nil {
		t.Fatal(err)
	}
	for i, b := range outer.Data {
		if b != byte(i)+1 {
			t.Fatalf("outer[%d] = %#x, want %#x", i, b, byte(i)+1)
		}
	}
	for i, b := range inner.Data {
		if b != 0x11 {
			t.Fatalf("inner[%d] = %#x, want 0x11", i, b)
		}
	}
	if f.rt.depth != 0 || f.rt.scratchTop != 0 {
		t.Fatalf("runtime left at depth %d, scratch top %d", f.rt.depth, f.rt.scratchTop)
	}

	_, finishOuter, err := f.rt.StageECallArgs(&clk, f.rt.EDL.TrustedFunc("ecall_inout"), []Arg{Buf(outer), Scalar(80)})
	if err != nil {
		t.Fatal(err)
	}
	// Each open call has a handler context and handler clock of its own.
	outerCtx := f.rt.HandlerCtx(nil)
	outerCtx.Clk.Advance(7)
	_, finishInner, err := f.rt.StageOCallArgs(&clk, f.rt.EDL.UntrustedFunc("ocall_inout"), []Arg{Buf(inner), Scalar(48)})
	if err != nil {
		t.Fatal(err)
	}
	if innerCtx := f.rt.HandlerCtx(nil); innerCtx == outerCtx || innerCtx.Clk.Now() != 0 || outerCtx.Clk.Now() != 7 {
		t.Errorf("inner handler context shares the outer one's (clocks %d and %d, want 0 and 7)", innerCtx.Clk.Now(), outerCtx.Clk.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("finishing the outer call under an open inner one did not panic")
			}
		}()
		finishOuter()
	}()
	finishInner()
	finishOuter()
}

// TestScratchGrowthKeepsOpenFrames stages a parameter larger than the whole
// scratch while an outer call is open: the scratch is replaced, the outer
// call keeps reading and writing its own bytes, and both copy back.
func TestScratchGrowthKeepsOpenFrames(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	const big = 4 * minScratch
	inner := f.enclaveBuf(t, big)
	f.rt.MustBindECall("ecall_inout", func(ctx *Ctx, args []Arg) uint64 {
		if _, err := ctx.OCall("ocall_out", Buf(inner), Scalar(big)); err != nil {
			t.Errorf("ocall_out: %v", err)
		}
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] ^= 0xff
		}
		return 0
	})
	outer := f.rt.Arena.AllocBuffer(&clk, 64)
	for i := range outer.Data {
		outer.Data[i] = byte(i)
	}
	if _, err := f.rt.ECall(&clk, "ecall_inout", Buf(outer), Scalar(64)); err != nil {
		t.Fatal(err)
	}
	for i, b := range outer.Data {
		if b != byte(i)^0xff {
			t.Fatalf("outer[%d] = %#x after the scratch grew under it", i, b)
		}
	}
	for i, b := range inner.Data {
		if b != byte(i*3) {
			t.Fatalf("inner[%d] = %#x, want %#x", i, b, byte(i*3))
		}
	}
	if len(f.rt.scratch) < big {
		t.Fatalf("scratch is %d bytes after staging %d", len(f.rt.scratch), big)
	}
}
