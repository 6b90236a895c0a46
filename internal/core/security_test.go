package core

// Section 5 of the paper argues HotCalls introduce no new vulnerability
// because every untrusted-memory structure they use (the data pointer, the
// call_ID, the spin lock) has an exact counterpart in the SDK's own
// ecall/ocall implementation, and the marshalling is the same generated
// code.  These tests exercise each paragraph of that argument.

import (
	"errors"
	"sync/atomic"
	"testing"

	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

// "Using shared plaintext memory for communication": HotCalls marshal with
// the SDK's code, so the boundary checks are bit-for-bit the same — an
// enclave pointer smuggled into an ecall [in] buffer fails both paths with
// the same error.
func TestSecuritySameMarshallingChecks(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	// Craft a "buffer" that claims an in-enclave address: a leak attempt.
	evil := &sdk.Buffer{Addr: f.e.Base() + 128, Data: make([]byte, 32)}

	_, sdkErr := f.rt.ECall(&clk, "ecall_work", sdk.Buf(evil), sdk.Scalar(32))
	_, hotErr := f.ch.HotECall(&clk, "ecall_work", sdk.Buf(evil), sdk.Scalar(32))
	if sdkErr == nil || hotErr == nil {
		t.Fatal("leak attempt accepted")
	}
	if sdkErr.Error() != hotErr.Error() {
		t.Fatalf("SDK and HotCalls diverge on the same attack:\n  sdk: %v\n  hot: %v", sdkErr, hotErr)
	}
}

// "Attacks on the data pointer": a tampered data pointer reaches the same
// generated wrapper either way; out-of-enclave ocall sources are rejected
// identically.
func TestSecurityDataPointerAttack(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	outside := f.rt.Arena.AllocBuffer(&clk, 64)

	var sdkErr error
	f.rt.MustBindECall("ecall_empty", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		_, sdkErr = ctx.OCall("ocall_send", sdk.Buf(outside), sdk.Scalar(64))
		return 0
	})
	f.rt.ECall(&clk, "ecall_empty")
	_, hotErr := f.ch.HotOCall(&clk, "ocall_send", sdk.Buf(outside), sdk.Scalar(64))

	if sdkErr == nil || hotErr == nil {
		t.Fatal("exfiltration pointer accepted")
	}
	if sdkErr.Error() != hotErr.Error() {
		t.Fatalf("divergent rejection: sdk=%v hot=%v", sdkErr, hotErr)
	}
}

// "Requesting a function via call_ID": a manipulated call_ID makes the
// untrusted side run the wrong function — the same power the adversary
// already has over the SDK's ocall_index.  It must not crash the
// responder, and out-of-table IDs return a sentinel.
func TestSecurityCallIDManipulation(t *testing.T) {
	hc := new(HotCall)
	executed := make([]int, 3)
	table := make([]func(interface{}) uint64, 3)
	for i := range table {
		i := i
		table[i] = func(interface{}) uint64 { executed[i]++; return uint64(i) }
	}
	_, wg := startResponder(hc, table)
	defer func() { hc.Stop(); wg.Wait() }()

	// The adversary flips the requested ID from 0 to 2: the wrong
	// function runs, but nothing worse happens.
	if ret, err := hc.Call(2, nil); err != nil || ret != 2 {
		t.Fatalf("manipulated ID: (%d, %v)", ret, err)
	}
	if executed[2] != 1 || executed[0] != 0 {
		t.Fatalf("execution counts: %v", executed)
	}
	// An out-of-range ID is caught by the bounds check.
	if ret, err := hc.Call(999, nil); err != nil || ret != ^uint64(0) {
		t.Fatalf("out-of-table ID: (%d, %v)", ret, err)
	}
	// The responder is still alive and serving.
	if ret, err := hc.Call(1, nil); err != nil || ret != 1 {
		t.Fatalf("responder dead after attacks: (%d, %v)", ret, err)
	}
}

// "Using the spin-lock located in shared memory": tampering with the lock
// can only cause denial of service (out of the SGX threat model), never a
// wrong result for completed calls.  A permanently held lock makes the
// requester time out into the SDK fallback path.
func TestSecuritySpinLockDoSOnly(t *testing.T) {
	hc := &HotCall{Timeout: 8}
	_, wg := startResponder(hc, []func(interface{}) uint64{
		func(interface{}) uint64 { return 42 },
	})
	defer func() { hc.Stop(); wg.Wait() }()

	// Healthy calls first.
	for i := 0; i < 10; i++ {
		if ret, err := hc.Call(0, nil); err != nil || ret != 42 {
			t.Fatalf("healthy call: (%d, %v)", ret, err)
		}
	}
	// Adversary wedges the lock: requesters experience DoS, a timeout
	// they fall back to the SDK path on (the Section 4.2 mitigation).
	hc.lock.Lock()
	if _, err := hc.Call(0, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call under wedged lock: err = %v, want ErrTimeout", err)
	}
	hc.lock.Unlock()
	// Service resumes once the DoS stops.
	if ret, err := hc.Call(0, nil); err != nil || ret != 42 {
		t.Fatalf("post-DoS call: (%d, %v)", ret, err)
	}
}

// Responder death mid-stream must surface as ErrStopped on the waiting
// requester and on every later one rather than a hang, and Run returns
// once the handler it was in does (failure injection beyond the paper).
func TestSecurityResponderDeath(t *testing.T) {
	var hc HotCall
	entered, slow := make(chan struct{}), make(chan struct{})
	_, wg := startResponder(&hc, []func(interface{}) uint64{
		func(interface{}) uint64 { close(entered); <-slow; return 1 },
	})
	callErr := make(chan error)
	go func() {
		_, err := hc.Call(0, nil)
		callErr <- err
	}()
	// Let the call get picked up, then kill the system.
	<-entered
	hc.Stop()
	if err := <-callErr; !errors.Is(err, ErrStopped) {
		t.Fatalf("call in flight across Stop: %v, want ErrStopped", err)
	}
	if _, err := hc.Call(0, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("call after Stop: %v, want ErrStopped", err)
	}
	close(slow) // the in-flight handler finishes
	wg.Wait()
}

// Data confidentiality: the marshalled request data for a HotOCall [in]
// parameter is a copy in untrusted memory — mutating it after the call
// must not affect the enclave-side original (no TOCTOU back-channel).
func TestSecurityStagingIsACopy(t *testing.T) {
	f := newChanFixture(t)
	var clk sim.Clock
	src := f.enclaveBuf(t, 32)
	for i := range src.Data {
		src.Data[i] = 0x5a
	}
	var staged *sdk.Buffer
	f.rt.MustBindOCall("ocall_send", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		staged = args[0].Buf
		return 0
	})
	if _, err := f.ch.HotOCall(&clk, "ocall_send", sdk.Buf(src), sdk.Scalar(32)); err != nil {
		t.Fatal(err)
	}
	if staged == src {
		t.Fatal("untrusted side received the enclave buffer itself")
	}
	staged.Data[0] = 0xff // adversary scribbles after the call
	if src.Data[0] != 0x5a {
		t.Fatal("untrusted write reached enclave memory")
	}
}

// "Requesting a function via call_ID" extends to the scatter-gather
// descriptor block, which lives in the same shared slot: a list the slot
// cannot hold is refused at the post, and a descriptor outside the posting
// requester's ring — a slab that does not exist, a window running past its
// slab, a count forged after the post — gets the sentinel.  The handler
// (zcPool's, which would panic in PayloadRing.Bytes on every one of them)
// never sees it, and the responder keeps serving.
func TestSecurityDescriptorManipulation(t *testing.T) {
	p := zcPool(1, 1)
	var ran atomic.Uint64
	handler := p.vtable[0]
	p.vtable[0] = func(requester int, data uint64, segs []Segment) uint64 {
		ran.Add(1)
		return handler(requester, data, segs)
	}
	r := p.Requester()
	slab, buf, _ := r.Ring().Acquire()
	good := Segment{Slab: slab, Len: 8}
	copy(buf, "\x01\x01\x01\x01\x01\x01\x01\x01")

	// The forgery goes in before the responders exist: the slot is the
	// requester's to write until Start's go statements publish it.
	forged, err := r.post(&VecCall{Segs: []Segment{good}})
	if err != nil {
		t.Fatal(err)
	}
	forged.nseg = MaxSegs + 5
	p.Start()
	defer p.Stop()
	if err := r.await(forged); err != nil || forged.ret != ^uint64(0) {
		t.Fatalf("forged segment count: (%#x, %v), want the sentinel", forged.ret, err)
	}
	refused := 1

	five := []Segment{good, good, good, good, good}
	if _, err := r.CallV(VecCall{Segs: five}); !errors.Is(err, ErrTooManySegments) {
		t.Fatalf("CallV with %d segments: %v, want ErrTooManySegments", len(five), err)
	}
	if b, err := r.SubmitV([]VecCall{{Segs: five}}); b != nil || !errors.Is(err, ErrTooManySegments) {
		t.Fatalf("SubmitV with %d segments: (%v, %v), want nothing posted and ErrTooManySegments", len(five), b, err)
	}
	for name, segs := range map[string][]Segment{
		"slab out of range":    {{Slab: 99, Len: 8}},
		"window past the slab": {good, {Slab: slab, Off: 4090, Len: 8}},
		"length wraps uint32":  {{Slab: slab, Off: 8, Len: ^uint32(0)}},
	} {
		if ret, err := r.CallV(VecCall{Segs: segs}); err != nil || ret != ^uint64(0) {
			t.Fatalf("%s: (%#x, %v), want the sentinel", name, ret, err)
		}
		refused++
	}
	if refused != 4 || ran.Load() != 0 {
		t.Fatalf("%d calls refused and the handler ran %d times, want 4 refused and no run", refused, ran.Load())
	}
	// The responder is still alive, and a whole-slab window is still legal.
	if ret, err := r.CallV(VecCall{Segs: []Segment{good, {Slab: slab, Len: 4096}}}); err != nil || ret != 8+8 {
		t.Fatalf("responder dead after attacks: (%d, %v)", ret, err)
	}

	// Check-then-use: the requester rewrites its slot's descriptors after
	// the claimant validated them.  The handler makes the rewrite itself,
	// between the check and its own read of segs — the widest window a
	// racing requester has — and must still read the validated
	// descriptor, not the forged one.
	tp := zcPool(1, 1)
	var saw Segment
	tp.SetVecTable([]PoolVecFunc{func(_ int, _ uint64, segs []Segment) uint64 {
		for i := range tp.shards[0].slots {
			tp.shards[0].slots[i].segs[0] = Segment{Slab: 99, Len: 8}
		}
		saw = segs[0]
		return 0
	}})
	tr := tp.Requester()
	tslab, _, _ := tr.Ring().Acquire()
	tp.Start()
	defer tp.Stop()
	validated := Segment{Slab: tslab, Len: 8}
	if _, err := tr.CallV(VecCall{Segs: []Segment{validated}}); err != nil {
		t.Fatal(err)
	}
	if saw != validated {
		t.Fatalf("handler read descriptor %+v, want the validated %+v", saw, validated)
	}
}
