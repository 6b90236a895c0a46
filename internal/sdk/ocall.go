package sdk

import (
	"hotcalls/internal/edl"
	"hotcalls/internal/mem"
	"hotcalls/internal/telemetry"
)

// Software fixed costs of the ocall path, in cycles, calibrated so an
// empty warm-cache ocall lands on the paper's 8,314-cycle median (Table 1
// row 4); see TestOcallWarmMedian.
const (
	ocallMarshalFixed  = 952 // trusted-side marshalling and pointer checks
	ocallDispatchFixed = 736 // untrusted dispatcher: table lookup, frame setup
	ocallReturnFixed   = 790 // trusted-side return handling after ERESUME
	osCodeLines        = 6   // libc/OS entry code touched by the landing fn
)

// ocallGlue mirrors ecallGlue for the ocall wrapper, calibrated on Table 1
// row 6 (9,252 / 11,418 / 9,801 cycles for to / from / to&from at 2 KB).
var ocallGlue = map[edl.Direction]float64{
	edl.In:    536,
	edl.Out:   590,
	edl.InOut: 701,
	// [zerocopy] pays only ring-membership verification and pointer
	// fix-up — no staging frame, no copy scheduling.
	edl.ZeroCopy: 48,
}

// OCall invokes a declared untrusted function from inside a trusted
// handler: trusted marshalling, EEXIT, the untrusted landing function,
// ERESUME, and the copy-back of output buffers into the enclave.
func (ctx *Ctx) OCall(name string, args ...Arg) (uint64, error) {
	rt, clk := ctx.RT, ctx.Clk
	if ctx.Router != nil {
		// A HotCalls-resident enclave thread: no EEXIT, the request
		// goes through the shared-memory channel.  The router is
		// dispatched dynamically, so it gets a frame's copy of the list.
		f := rt.holdArgs(clk, args)
		ret, err := ctx.Router.RouteOCall(clk, name, f.args...)
		rt.popFrame(f)
		return ret, err
	}
	b, err := rt.UntrustedBinding(name)
	if err != nil {
		return 0, err
	}
	if ctx.TCS == nil || !ctx.TCS.Entered() {
		return 0, ErrOCallOutsideCall
	}
	if err := checkArgs(b.Decl, args); err != nil {
		return 0, err
	}
	b.calls++
	rt.tel.ocalls.Inc()
	callStart := clk.Now()

	m := rt.Platform.Mem

	// --- Trusted side: build the ocall frame on the untrusted stack and
	// apply pointer attributes.  Remember: for ocalls, [in] means "into
	// the ocall" (out of the enclave) and [out] means "out of the ocall"
	// (back into the enclave) — Section 3.3.
	clk.Advance(ocallMarshalFixed)

	tr := rt.tel.tracer
	deep := tr.Detailed()
	stageStart := clk.Now()
	f, err := rt.stageOCall(clk, b.Decl, args)
	if err != nil {
		return 0, err
	}
	if deep && clk.Now() > stageStart {
		tr.Emit(telemetry.KindMarshal, "stage:"+name, stageStart, clk.Since(stageStart), 0)
	}

	if err := rt.Enclave.EExit(clk, ctx.TCS); err != nil {
		f.abort()
		return 0, err
	}

	// --- Untrusted dispatcher: look up the landing function and run it.
	clk.Advance(ocallDispatchFixed)
	m.Load(clk, ocallTableAddr)
	for i := 0; i < osCodeLines; i++ {
		m.Load(clk, osCodeAddr+uint64(i)*mem.LineSize)
	}
	rt.ocallStack = append(rt.ocallStack, name)
	handlerStart := clk.Now()
	ret := b.Fn(f.handlerCtx(clk, nil, nil), f.args)
	if deep && clk.Now() > handlerStart {
		tr.Emit(telemetry.KindHandler, "handler:"+name, handlerStart, clk.Since(handlerStart), 0)
	}
	rt.ocallStack = rt.ocallStack[:len(rt.ocallStack)-1]

	if err := rt.Enclave.EResume(clk, ctx.TCS); err != nil {
		f.abort()
		return 0, err
	}

	// --- Back inside: copy output buffers into the enclave and unwind
	// the insecure stack.
	clk.Advance(ocallReturnFixed)
	copyOutStart := clk.Now()
	f.done()
	if deep && clk.Now() > copyOutStart {
		tr.Emit(telemetry.KindMarshal, "copyout:"+name, copyOutStart, clk.Since(copyOutStart), 0)
	}
	if tr != nil {
		tr.Emit(telemetry.KindOcall, "ocall:"+name, callStart, clk.Since(callStart), 0)
	}
	return ret, nil
}
