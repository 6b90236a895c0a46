package sdk

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"hotcalls/internal/edl"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

const testEDL = `
enclave {
    trusted {
        public int ecall_empty(void);
        public int ecall_in([in, size=len] uint8_t* buf, size_t len);
        public int ecall_out([out, size=len] uint8_t* buf, size_t len);
        public int ecall_inout([in, out, size=len] uint8_t* buf, size_t len);
        public int ecall_usercheck([user_check] uint8_t* buf);
        public int ecall_callsout([in, size=len] uint8_t* buf, size_t len);
        public int ecall_str([in, string] char* s);
        public int ecall_allowed(void);
    };
    untrusted {
        int ocall_empty(void) allow(ecall_allowed);
        int ocall_in([in, size=len] uint8_t* buf, size_t len);
        int ocall_out([out, size=len] uint8_t* buf, size_t len);
        int ocall_inout([in, out, size=len] uint8_t* buf, size_t len);
        int ocall_unbound(void);
    };
};
`

type fixture struct {
	p  *sgx.Platform
	e  *sgx.Enclave
	rt *Runtime
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	p := sgx.NewPlatform(42)
	var clk sim.Clock
	e := p.ECreate(&clk, 64<<20, 4, sgx.Attributes{})
	for i := 0; i < 4; i++ {
		if err := e.EAdd(&clk, uint64(i)*sgx.PageSize, make([]byte, sgx.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EInit(&clk); err != nil {
		t.Fatal(err)
	}
	rt := New(p, e, edl.MustParse(testEDL))

	rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 { return 7 })
	rt.MustBindECall("ecall_in", func(ctx *Ctx, args []Arg) uint64 {
		var sum uint64
		for _, b := range args[0].Buf.Data {
			sum += uint64(b)
		}
		return sum
	})
	rt.MustBindECall("ecall_out", func(ctx *Ctx, args []Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] = byte(i)
		}
		return 0
	})
	rt.MustBindECall("ecall_inout", func(ctx *Ctx, args []Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] ^= 0xff
		}
		return 0
	})
	rt.MustBindECall("ecall_usercheck", func(ctx *Ctx, args []Arg) uint64 {
		args[0].Buf.Data[0] = 0x5a
		return uint64(args[0].Buf.Addr & 0xffff)
	})
	rt.MustBindECall("ecall_callsout", func(ctx *Ctx, args []Arg) uint64 {
		r, err := ctx.OCall("ocall_in", args[0], args[1])
		if err != nil {
			panic(err)
		}
		return r
	})
	rt.MustBindECall("ecall_str", func(ctx *Ctx, args []Arg) uint64 {
		return uint64(len(args[0].Buf.Data))
	})
	rt.MustBindECall("ecall_allowed", func(ctx *Ctx, args []Arg) uint64 { return 1 })

	rt.MustBindOCall("ocall_empty", func(ctx *Ctx, args []Arg) uint64 { return 9 })
	rt.MustBindOCall("ocall_in", func(ctx *Ctx, args []Arg) uint64 {
		var sum uint64
		for _, b := range args[0].Buf.Data {
			sum += uint64(b)
		}
		return sum
	})
	rt.MustBindOCall("ocall_out", func(ctx *Ctx, args []Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i] = byte(i * 3)
		}
		return 0
	})
	rt.MustBindOCall("ocall_inout", func(ctx *Ctx, args []Arg) uint64 {
		for i := range args[0].Buf.Data {
			args[0].Buf.Data[i]++
		}
		return 0
	})
	return &fixture{p: p, e: e, rt: rt}
}

// enclaveBuf allocates an in-enclave buffer for ocall sources.
func (f *fixture) enclaveBuf(t testing.TB, size int) *Buffer {
	t.Helper()
	var clk sim.Clock
	addr, err := f.e.Alloc(&clk, uint64(size))
	if err != nil {
		t.Fatal(err)
	}
	return &Buffer{Addr: addr, Data: make([]byte, size)}
}

func TestECallEmptyReturns(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	ret, err := f.rt.ECall(&clk, "ecall_empty")
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d, want 7", ret)
	}
	if clk.Now() == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestECallInDataArrives(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 256)
	var want uint64
	for i := range buf.Data {
		buf.Data[i] = byte(i)
		want += uint64(byte(i))
	}
	ret, err := f.rt.ECall(&clk, "ecall_in", Buf(buf), Scalar(256))
	if err != nil {
		t.Fatal(err)
	}
	if ret != want {
		t.Fatalf("sum = %d, want %d", ret, want)
	}
}

func TestECallOutDataReturns(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 128)
	for i := range buf.Data {
		buf.Data[i] = 0xee // must be overwritten by the zeroed staging copy
	}
	if _, err := f.rt.ECall(&clk, "ecall_out", Buf(buf), Scalar(128)); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf.Data {
		if b != byte(i) {
			t.Fatalf("buf[%d] = %#x, want %#x", i, b, byte(i))
		}
	}
}

func TestECallOutStagingZeroed(t *testing.T) {
	// The enclave staging buffer for [out] must arrive zeroed even if a
	// previous call left secret data at the same heap address.
	f := newFixture(t)
	var clk sim.Clock
	seen := make(chan []byte, 1)
	f.rt.MustBindECall("ecall_out", func(ctx *Ctx, args []Arg) uint64 {
		cp := append([]byte(nil), args[0].Buf.Data...)
		select {
		case seen <- cp:
		default:
		}
		return 0
	})
	buf := f.rt.Arena.AllocBuffer(&clk, 64)
	f.rt.ECall(&clk, "ecall_out", Buf(buf), Scalar(64))
	got := <-seen
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("staging buffer not zeroed")
	}
}

func TestECallInOutRoundTrip(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 64)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	if _, err := f.rt.ECall(&clk, "ecall_inout", Buf(buf), Scalar(64)); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf.Data {
		if b != byte(i)^0xff {
			t.Fatalf("buf[%d] = %#x", i, b)
		}
	}
}

func TestECallUserCheckZeroCopy(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 64)
	ret, err := f.rt.ECall(&clk, "ecall_usercheck", Buf(buf))
	if err != nil {
		t.Fatal(err)
	}
	// The handler saw the caller's buffer directly: same address, and
	// its write is visible without any copy-out.
	if ret != buf.Addr&0xffff {
		t.Fatal("user_check buffer was not passed through")
	}
	if buf.Data[0] != 0x5a {
		t.Fatal("user_check write not visible to caller")
	}
}

func TestECallStringLength(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 32)
	copy(buf.Data, "hello\x00garbage")
	ret, err := f.rt.ECall(&clk, "ecall_str", Buf(buf))
	if err != nil {
		t.Fatal(err)
	}
	if ret != 6 { // "hello" + NUL
		t.Fatalf("string size = %d, want 6", ret)
	}
}

func TestECallStringWithoutNUL(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.rt.Arena.AllocBuffer(&clk, 8)
	for i := range buf.Data {
		buf.Data[i] = 'x'
	}
	if _, err := f.rt.ECall(&clk, "ecall_str", Buf(buf)); !errors.Is(err, ErrNoNUL) {
		t.Fatalf("err = %v, want ErrNoNUL", err)
	}
}

func TestECallRejectsEnclavePointer(t *testing.T) {
	// Passing an enclave address as an [in] ecall buffer must fail the
	// boundary check: the SDK refuses to read "caller" data from secure
	// memory (information-leak prevention).
	f := newFixture(t)
	var clk sim.Clock
	evil := f.enclaveBuf(t, 64)
	if _, err := f.rt.ECall(&clk, "ecall_in", Buf(evil), Scalar(64)); !errors.Is(err, ErrInsecurePointer) {
		t.Fatalf("err = %v, want ErrInsecurePointer", err)
	}
}

func TestOCallRejectsOutsidePointer(t *testing.T) {
	// An ocall [in] source must be inside the enclave.
	f := newFixture(t)
	var clk sim.Clock
	outside := f.rt.Arena.AllocBuffer(&clk, 64)
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		_, err := ctx.OCall("ocall_in", Buf(outside), Scalar(64))
		if !errors.Is(err, ErrInsecurePointer) {
			t.Errorf("err = %v, want ErrInsecurePointer", err)
		}
		return 0
	})
	f.rt.ECall(&clk, "ecall_empty")
}

func TestOCallInDataArrives(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	src := f.enclaveBuf(t, 100)
	var want uint64
	for i := range src.Data {
		src.Data[i] = byte(i * 7)
		want += uint64(byte(i * 7))
	}
	ret, err := f.rt.ECall(&clk, "ecall_callsout", Buf(mustPlain(f, &clk, src.Data)), Scalar(100))
	if err != nil {
		t.Fatal(err)
	}
	if ret != want {
		t.Fatalf("ocall sum = %d, want %d", ret, want)
	}
}

// mustPlain copies data into a fresh plain buffer.
func mustPlain(f *fixture, clk *sim.Clock, data []byte) *Buffer {
	b := f.rt.Arena.AllocBuffer(clk, uint64(len(data)))
	copy(b.Data, data)
	return b
}

func TestOCallOutCopiesBack(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	dst := f.enclaveBuf(t, 64)
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		if _, err := ctx.OCall("ocall_out", Buf(dst), Scalar(64)); err != nil {
			t.Errorf("ocall_out: %v", err)
		}
		return 0
	})
	f.rt.ECall(&clk, "ecall_empty")
	for i, b := range dst.Data {
		if b != byte(i*3) {
			t.Fatalf("dst[%d] = %#x, want %#x", i, b, byte(i*3))
		}
	}
}

func TestOCallInOutRoundTrip(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	buf := f.enclaveBuf(t, 32)
	for i := range buf.Data {
		buf.Data[i] = byte(i)
	}
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		ctx.OCall("ocall_inout", Buf(buf), Scalar(32))
		return 0
	})
	f.rt.ECall(&clk, "ecall_empty")
	for i, b := range buf.Data {
		if b != byte(i)+1 {
			t.Fatalf("buf[%d] = %d", i, b)
		}
	}
}

func TestOCallOutsideEnclaveRejected(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	ctx := &Ctx{Clk: &clk, RT: f.rt}
	if _, err := ctx.OCall("ocall_empty"); !errors.Is(err, ErrOCallOutsideCall) {
		t.Fatalf("err = %v, want ErrOCallOutsideCall", err)
	}
}

func TestNestedECallAllowList(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	var allowedErr, deniedErr error
	f.rt.MustBindOCall("ocall_empty", func(ctx *Ctx, args []Arg) uint64 {
		_, allowedErr = ctx.RT.ECall(ctx.Clk, "ecall_allowed")
		_, deniedErr = ctx.RT.ECall(ctx.Clk, "ecall_empty")
		return 0
	})
	f.rt.MustBindECall("ecall_str", func(ctx *Ctx, args []Arg) uint64 {
		ctx.OCall("ocall_empty")
		return 0
	})
	buf := f.rt.Arena.AllocBuffer(&clk, 4)
	buf.Data[0] = 0
	if _, err := f.rt.ECall(&clk, "ecall_str", Buf(buf)); err != nil {
		t.Fatal(err)
	}
	if allowedErr != nil {
		t.Fatalf("allowed nested ecall failed: %v", allowedErr)
	}
	if !errors.Is(deniedErr, ErrOCallNotAllowed) {
		t.Fatalf("denied nested ecall err = %v, want ErrOCallNotAllowed", deniedErr)
	}
}

func TestUnknownAndUnboundFunctions(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	if _, err := f.rt.ECall(&clk, "nope"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v", err)
	}
	if err := f.rt.BindECall("nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("bind err = %v", err)
	}
	var ocallErr error
	f.rt.MustBindECall("ecall_empty", func(ctx *Ctx, args []Arg) uint64 {
		_, ocallErr = ctx.OCall("ocall_unbound")
		return 0
	})
	f.rt.ECall(&clk, "ecall_empty")
	if !errors.Is(ocallErr, ErrNotBound) {
		t.Fatalf("unbound ocall err = %v", ocallErr)
	}
}

func TestArgumentValidation(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	if _, err := f.rt.ECall(&clk, "ecall_in"); !errors.Is(err, ErrArgCount) {
		t.Fatalf("err = %v, want ErrArgCount", err)
	}
	buf := f.rt.Arena.AllocBuffer(&clk, 8)
	if _, err := f.rt.ECall(&clk, "ecall_in", Buf(buf), Buf(buf)); !errors.Is(err, ErrArgKind) {
		t.Fatalf("err = %v, want ErrArgKind", err)
	}
	// Declared size larger than the backing buffer.
	if _, err := f.rt.ECall(&clk, "ecall_in", Buf(buf), Scalar(4096)); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("err = %v, want ErrBufferTooSmall", err)
	}
}

func TestCounters(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	f.rt.ECall(&clk, "ecall_empty")
	f.rt.ECall(&clk, "ecall_empty")
	buf := f.rt.Arena.AllocBuffer(&clk, 8)
	f.rt.ECall(&clk, "ecall_callsout", Buf(buf), Scalar(8))
	c := f.rt.Counters()
	if c["ecall_empty"] != 2 || c["ecall_callsout"] != 1 || c["ocall_in"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	f.rt.ResetCounters()
	if len(f.rt.Counters()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestTCSStateAfterCalls(t *testing.T) {
	f := newFixture(t)
	var clk sim.Clock
	f.rt.ECall(&clk, "ecall_empty")
	for i := 0; i < f.e.NumTCS(); i++ {
		if f.e.TCSByIndex(i).Entered() {
			t.Fatalf("TCS %d leaked in entered state", i)
		}
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	counter := 0
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if counter != 4000 {
		t.Fatalf("counter = %d, want 4000 (lost updates)", counter)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	l.Unlock()
}

func TestSpinLockDoubleUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l SpinLock
	l.Unlock()
}

func TestCondSignalWakes(t *testing.T) {
	var c Cond
	var mu sync.Mutex
	ready := false
	done := make(chan struct{})
	go func() {
		c.Wait(func() bool {
			mu.Lock()
			defer mu.Unlock()
			return ready
		})
		close(done)
	}()
	mu.Lock()
	ready = true
	mu.Unlock()
	// Broadcast until the waiter observes readiness.
	for {
		c.Broadcast()
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestCountAttributeTransfersCountTimesSizeof(t *testing.T) {
	p := sgx.NewPlatform(50)
	var clk sim.Clock
	e := p.ECreate(&clk, 16<<20, 1, sgx.Attributes{})
	e.EInit(&clk)
	rt := New(p, e, edl.MustParse(`enclave {
		trusted { public int ecall_vec([in, count=n] uint32_t* v, size_t n); };
		untrusted { };
	};`))
	var got int
	rt.MustBindECall("ecall_vec", func(ctx *Ctx, args []Arg) uint64 {
		got = len(args[0].Buf.Data)
		return 0
	})
	buf := rt.Arena.AllocBuffer(&clk, 64)
	// count=5 of uint32_t -> 20 bytes staged.
	if _, err := rt.ECall(&clk, "ecall_vec", Buf(buf), Scalar(5)); err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("staged %d bytes, want 20 (5 x sizeof(uint32_t))", got)
	}
	// Overflowing count is rejected.
	if _, err := rt.ECall(&clk, "ecall_vec", Buf(buf), Scalar(100)); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("err = %v, want ErrBufferTooSmall", err)
	}
}

func TestCTypeSizes(t *testing.T) {
	for typ, want := range map[string]uint64{
		"char": 1, "uint8_t": 1, "uint16_t": 2, "int": 4, "uint32_t": 4,
		"long": 8, "size_t": 8, "double": 8, "struct timeval": 8,
	} {
		if got := cTypeSize(typ); got != want {
			t.Errorf("sizeof(%s) = %d, want %d", typ, got, want)
		}
	}
}

func TestUntrustedStackOverflowPanics(t *testing.T) {
	f := newFixture(t)
	ebuf := f.enclaveBuf(t, 2048)
	var clk sim.Clock
	// Leak stack frames by staging without finishing: overflow must be
	// caught loudly, not silently corrupt.
	defer func() {
		if recover() == nil {
			t.Fatal("expected stack-overflow panic")
		}
	}()
	decl := f.rt.EDL.UntrustedFunc("ocall_in")
	for i := 0; i < 1<<20; i++ {
		// StageOCallArgs allocates a staging frame each time; never
		// calling finish() models a leak that must eventually trip
		// the guard.
		f.rt.StageOCallArgs(&clk, decl, []Arg{Buf(ebuf), Scalar(2048)})
	}
}
