package sdk

import (
	"fmt"

	"hotcalls/internal/edl"
	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// Software fixed costs of the ecall path, in cycles.  Together with the
// EENTER/EEXIT microcode costs and the path's cache-line touches these are
// calibrated so an empty warm-cache ecall lands on the paper's 8,640-cycle
// median (Table 1 row 1); see TestEcallWarmMedian.
const (
	ecallPrepFixed     = 1820 // lookup, TCS r/w lock, AVX save, FP checks
	ecallDispatchFixed = 560  // trusted runtime dispatch + checks
	ecallPostFixed     = 400  // AVX restore, lock release, return

	// bufferCheckCost is the pointer-boundary validation edger8r emits
	// per copied pointer parameter.
	bufferCheckCost = 88
)

// ecallGlue is the per-direction fixed marshalling-glue cost of the
// generated wrapper beyond the explicit allocation, zeroing, and copy
// work (parameter re-validation, sgx_ocalloc-style bookkeeping).  The
// values are calibrated on the paper's 2 KB medians (Table 1 row 3, with
// the `out` figure taken as 11,712 from the Section 3.5 text — the table's
// 11,172 is inconsistent with the paper's own 885-cycle saving argument).
var ecallGlue = map[edl.Direction]float64{
	edl.In:    90,
	edl.Out:   218,
	edl.InOut: 424,
	// [zerocopy] pays only ring-membership verification and pointer
	// fix-up — no staging allocation, no copy scheduling.
	edl.ZeroCopy: 36,
}

// ECall invokes a declared trusted function through the full SDK path:
// untrusted prep, marshalling, EENTER, trusted-side checks and copies, the
// handler itself, copy-out, EEXIT, and untrusted epilogue.
func (rt *Runtime) ECall(clk *sim.Clock, name string, args ...Arg) (uint64, error) {
	b, err := rt.TrustedBinding(name)
	if err != nil {
		return 0, err
	}
	if err := checkArgs(b.Decl, args); err != nil {
		return 0, err
	}
	// Allow-list enforcement: a nested ecall during a pending ocall must
	// be declared in that ocall's allow clause.
	if n := len(rt.ocallStack); n > 0 {
		pending := rt.EDL.UntrustedFunc(rt.ocallStack[n-1])
		allowed := false
		for _, a := range pending.Allowed {
			if a == name {
				allowed = true
				break
			}
		}
		if !allowed {
			return 0, fmt.Errorf("%w: %s during %s", ErrOCallNotAllowed, name, rt.ocallStack[n-1])
		}
	}
	b.calls++
	rt.tel.ecalls.Inc()
	callStart := clk.Now()

	m := rt.Platform.Mem

	// --- Untrusted prep: locate the enclave, take the TCS pool lock,
	// save AVX state, check FP exceptions, serialize the marshal struct.
	clk.Advance(ecallPrepFixed)
	m.Load(clk, lookupLineAddr)
	m.Store(clk, tcsLockAddr)
	for i := 0; i < avxLines; i++ {
		m.Store(clk, avxSaveAddr+uint64(i)*mem.LineSize)
	}
	m.Store(clk, marshalAddr)

	tcs, err := rt.Enclave.AcquireTCS()
	if err != nil {
		return 0, err
	}
	if err := rt.Enclave.EEnter(clk, tcs); err != nil {
		return 0, err
	}

	// --- Trusted side: validate the marshal struct, apply pointer
	// attributes (Section 3.2.1), run the handler.
	clk.Advance(ecallDispatchFixed)
	m.Load(clk, marshalAddr)

	tr := rt.tel.tracer
	deep := tr.Detailed()
	stageStart := clk.Now()
	f, err := rt.stageECall(clk, b.Decl, args)
	if err != nil {
		rt.Enclave.EExit(clk, tcs)
		return 0, err
	}
	if deep && clk.Now() > stageStart {
		tr.Emit(telemetry.KindMarshal, "stage:"+name, stageStart, clk.Since(stageStart), 0)
	}

	handlerStart := clk.Now()
	ret := b.Fn(f.handlerCtx(clk, tcs, nil), f.args)
	if deep && clk.Now() > handlerStart {
		tr.Emit(telemetry.KindHandler, "handler:"+name, handlerStart, clk.Since(handlerStart), 0)
	}

	// --- Copy-out phase and staging release.
	copyOutStart := clk.Now()
	f.done()
	if deep && clk.Now() > copyOutStart {
		tr.Emit(telemetry.KindMarshal, "copyout:"+name, copyOutStart, clk.Since(copyOutStart), 0)
	}

	if err := rt.Enclave.EExit(clk, tcs); err != nil {
		return 0, err
	}

	// --- Untrusted epilogue: restore AVX state, release the lock.
	clk.Advance(ecallPostFixed)
	for i := 0; i < avxLines; i++ {
		m.Load(clk, avxSaveAddr+uint64(i)*mem.LineSize)
	}
	if tr != nil {
		tr.Emit(telemetry.KindEcall, "ecall:"+name, callStart, clk.Since(callStart), 0)
	}
	return ret, nil
}
