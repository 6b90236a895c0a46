package sdk

import (
	"fmt"

	"hotcalls/internal/edl"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

// This file holds the marshalling core shared by the SDK call paths and by
// HotCalls, plus the memset/memcpy selection controlled by the runtime's
// OptimizedMemops option.  The paper's security argument (Section 5) rests on HotCalls
// using *the same* edger8r-generated marshalling code as the SDK's ecalls
// and ocalls; in this implementation that is literally true — internal/core
// calls StageOCallArgs / StageECallArgs.

// zero applies the configured memset to a staging buffer.
func (rt *Runtime) zero(clk *sim.Clock, addr, size uint64) {
	if rt.OptimizedMemops {
		rt.Platform.Mem.MemsetFast(clk, addr, size)
	} else {
		rt.Platform.Mem.MemsetByteWise(clk, addr, size)
	}
}

// stage applies the configured memcpy to a staging copy.  Every staged
// byte is counted in rt.stagedBytes so the marshalling volume of a call
// shape is directly observable (an out-only parameter pays only the
// copy-back; [zerocopy] parameters never come through here at all).
func (rt *Runtime) stageCopy(clk *sim.Clock, dst, src, size uint64) {
	rt.stagedBytes += size
	if rt.OptimizedMemops {
		rt.Platform.Mem.CopyAVX(clk, dst, src, size)
	} else {
		rt.Platform.Mem.Copy(clk, dst, src, size)
	}
}

type stagedParam struct {
	param   *edl.Param
	origin  *Buffer // the caller-side buffer (plain for ecalls, enclave for ocalls)
	staging *Buffer
	size    uint64
}

// callFrame is the reusable marshalling state of the call at one nesting
// depth: the argument list the handler sees, the staging buffers behind
// its pointer parameters, the handler's context, and the finish function
// handed to the caller.  Calls nest strictly (an ocall's landing function
// may re-enter, whose handler may call out again, ...) and finish
// innermost-first, so depth d always reuses frames[d].
//
// A caller's variadic argument list ends here: every entry point copies it
// into a frame before anything dynamically dispatched (a Handler, an
// OCallRouter) can see it, so the compiler keeps the caller's list on the
// stack and a call allocates nothing.
type callFrame struct {
	rt     *Runtime
	clk    *sim.Clock
	args   []Arg    // outer (ocall) / inner (ecall) argument list
	bufs   []Buffer // bufs[i] is the staging buffer of parameter i
	staged []stagedParam
	ocall  bool
	stack  uint64    // untrusted stack cursor to restore (ocalls)
	mark   int       // scratch cursor to restore
	finish func()    // f.done, bound once
	ctx    Ctx       // the handler's context
	hclk   sim.Clock // the handler's own clock, when it runs on another core (HandlerCtx)
}

// minScratch is the first scratch allocation: two 2 KB buffers in flight.
const minScratch = 8 << 10

// pushFrame opens the frame of a call with n arguments.
func (rt *Runtime) pushFrame(clk *sim.Clock, n int, ocall bool) *callFrame {
	if rt.depth == len(rt.frames) {
		f := &callFrame{rt: rt}
		f.finish = f.done
		rt.frames = append(rt.frames, f)
	}
	f := rt.frames[rt.depth]
	rt.depth++
	f.clk, f.ocall, f.mark, f.staged = clk, ocall, rt.scratchTop, f.staged[:0]
	if cap(f.args) < n {
		f.args, f.bufs = make([]Arg, n), make([]Buffer, n)
	}
	f.args, f.bufs = f.args[:n], f.bufs[:n]
	return f
}

// holdArgs opens a frame that carries a copy of args and stages nothing:
// pointers pass through as they are.
func (rt *Runtime) holdArgs(clk *sim.Clock, args []Arg) *callFrame {
	f := rt.pushFrame(clk, len(args), false)
	copy(f.args, args)
	return f
}

// popFrame closes the innermost frame and releases its staging bytes.
func (rt *Runtime) popFrame(f *callFrame) {
	if rt.poison {
		for i := range rt.scratch[f.mark:rt.scratchTop] {
			rt.scratch[f.mark+i] = 0xDB
		}
		for i := range f.args {
			f.args[i] = Arg{Scalar: 0xDBDBDBDBDBDBDBDB}
		}
	}
	rt.scratchTop = f.mark
	rt.depth--
}

// stage returns the staging buffer of parameter i at the given simulated
// address, with size real bytes behind it.  The bytes come from the
// runtime's LIFO scratch, which mirrors the untrusted stack / secure heap
// discipline the addresses already follow: a frame's bytes are released
// when it finishes, so a handler must not keep a staged slice past its
// return.  Growing replaces the scratch array; slices of frames still open
// keep the old one alive.
func (f *callFrame) stage(i int, addr, size uint64) *Buffer {
	rt := f.rt
	top := rt.scratchTop + int(size)
	if top > len(rt.scratch) {
		rt.scratch = make([]byte, max(2*len(rt.scratch), top, minScratch))
	}
	st := &f.bufs[i]
	*st = Buffer{Addr: addr, Data: rt.scratch[rt.scratchTop:top:top]}
	rt.scratchTop = top
	return st
}

// done is the frame's finish function: copy outputs back to the caller's
// buffers, release the staging memory, close the frame.
func (f *callFrame) done() {
	rt := f.rt
	if rt.depth == 0 || rt.frames[rt.depth-1] != f {
		panic("sdk: staged calls finished out of order")
	}
	for i := range f.staged {
		s := &f.staged[i]
		if s.param.Direction == edl.Out || s.param.Direction == edl.InOut {
			rt.stageCopy(f.clk, s.origin.Addr, s.staging.Addr, s.size)
			copy(s.origin.Data[:s.size], s.staging.Data)
		}
		if !f.ocall {
			rt.Enclave.Free(f.clk, s.staging.Addr, s.size)
		}
	}
	if f.ocall {
		rt.stackRestore(f.stack)
	}
	rt.popFrame(f)
}

// abort undoes a partly staged call: nothing is leaked.
func (f *callFrame) abort() {
	if f.ocall {
		f.rt.stackRestore(f.stack)
	} else {
		for _, s := range f.staged {
			f.rt.Enclave.Free(f.clk, s.staging.Addr, s.size)
		}
	}
	f.rt.popFrame(f)
}

// HandlerCtx returns the context for the handler of the innermost staged
// call when it runs on a core of its own (a HotCalls responder): a clock
// starting at zero, so the caller can add the handler's execution time to
// the requester's timeline, and the given router for the handler's own
// ocalls.  Like the staged argument list it belongs to the call and is
// reused once the call's finish has run.
func (rt *Runtime) HandlerCtx(router OCallRouter) *Ctx {
	f := rt.frames[rt.depth-1]
	f.hclk = sim.Clock{}
	return f.handlerCtx(&f.hclk, nil, router)
}

// handlerCtx resets the frame's context for the call's handler.
func (f *callFrame) handlerCtx(clk *sim.Clock, tcs *sgx.TCS, router OCallRouter) *Ctx {
	f.ctx = Ctx{Clk: clk, RT: f.rt, TCS: tcs, Router: router, Host: f.ctx.Host}
	return &f.ctx
}

// CallNative runs a bound edge function with no boundary in between — the
// porting framework's native configuration, where an API reference is a
// plain function call.  Nothing is staged, but the handler still gets a
// frame's argument list and context, under the same rule as a staged
// call's: they are reused once it returns.
func (rt *Runtime) CallNative(clk *sim.Clock, b *Binding, args []Arg) uint64 {
	b.Count()
	f := rt.holdArgs(clk, args)
	ret := b.Fn(f.handlerCtx(clk, nil, nil), f.args)
	rt.popFrame(f)
	return ret
}

// StageOCallArgs performs the trusted-side marshalling of an ocall's
// arguments: pointer checks, staging on the untrusted stack, [in] copies
// and [out] zeroing (skipped under No-Redundant-Zeroing).  It returns the
// argument list for the untrusted landing function and a finish function
// that copies outputs back into the enclave and unwinds the stack frame.
// Both belong to the call: the list and the staged bytes are reused once
// finish has run.  On error nothing is leaked: the frame is restored.
func (rt *Runtime) StageOCallArgs(clk *sim.Clock, decl *edl.Func, args []Arg) ([]Arg, func(), error) {
	f, err := rt.stageOCall(clk, decl, args)
	if err != nil {
		return nil, nil, err
	}
	return f.args, f.finish, nil
}

func (rt *Runtime) stageOCall(clk *sim.Clock, decl *edl.Func, args []Arg) (*callFrame, error) {
	if err := checkArgs(decl, args); err != nil {
		return nil, err
	}
	m := rt.Platform.Mem
	f := rt.pushFrame(clk, len(args), true)
	f.stack = rt.stackFrame()
	m.Store(clk, rt.stackTop) // frame header line

	for i := range args {
		p := &decl.Params[i]
		if !p.Pointer || args[i].Buf == nil || p.Direction == edl.UserCheck {
			f.args[i] = args[i]
			continue
		}
		src := args[i].Buf
		size, err := resolveSize(decl, p, args, src)
		if err != nil {
			f.abort()
			return nil, err
		}
		if p.Direction == edl.ZeroCopy {
			// A [zerocopy] buffer lives in untrusted shared-ring
			// memory by construction, so the usual in-enclave check
			// inverts: verify the pointer lies inside a registered
			// ring, then hand it through with no staging and no copy.
			clk.Advance(bufferCheckCost)
			if !rt.RingBacked(src.Addr, size) {
				f.abort()
				return nil, fmt.Errorf("%w: %s.%s", ErrNotRingBacked, decl.Name, p.Name)
			}
			clk.AdvanceF(ocallGlue[edl.ZeroCopy])
			f.args[i] = args[i]
			continue
		}
		// The enclave-side pointer must lie entirely inside the
		// enclave, or copying could exfiltrate via a crafted pointer.
		clk.Advance(bufferCheckCost)
		if !rt.Enclave.InRange(src.Addr, size) {
			f.abort()
			return nil, fmt.Errorf("%w: %s.%s", ErrInsecurePointer, decl.Name, p.Name)
		}
		clk.AdvanceF(ocallGlue[p.Direction])
		st := f.stage(i, rt.stackAlloc(clk, size), size)
		switch p.Direction {
		case edl.In, edl.InOut:
			rt.stageCopy(clk, st.Addr, src.Addr, size)
			copy(st.Data, src.Data[:size])
		case edl.Out:
			// The SDK zeroes the untrusted staging buffer with its
			// byte-wise memset.  The paper observes this has no
			// security benefit — untrusted code can read that
			// memory anyway — and removing it is the
			// No-Redundant-Zeroing optimization of Section 6.  Only
			// the cycle charge is optional: the landing function sees
			// zero bytes either way.
			if !rt.NoRedundantZeroing {
				rt.zero(clk, st.Addr, size)
			}
			clear(st.Data)
		}
		f.staged = append(f.staged, stagedParam{param: p, origin: src, staging: st, size: size})
		f.args[i] = Buf(st)
	}
	return f, nil
}

// StageECallArgs performs the trusted-side marshalling of an ecall's
// arguments after entry: pointer checks against the enclave boundary,
// staging allocation on the secure heap, [in] copies and [out] zeroing.
// The finish function copies outputs back to the caller's buffers and
// frees the staging memory; list and staged bytes belong to the call, as
// for StageOCallArgs.
func (rt *Runtime) StageECallArgs(clk *sim.Clock, decl *edl.Func, args []Arg) ([]Arg, func(), error) {
	f, err := rt.stageECall(clk, decl, args)
	if err != nil {
		return nil, nil, err
	}
	return f.args, f.finish, nil
}

func (rt *Runtime) stageECall(clk *sim.Clock, decl *edl.Func, args []Arg) (*callFrame, error) {
	if err := checkArgs(decl, args); err != nil {
		return nil, err
	}
	f := rt.pushFrame(clk, len(args), false)
	for i := range args {
		p := &decl.Params[i]
		if !p.Pointer || args[i].Buf == nil || p.Direction == edl.UserCheck {
			f.args[i] = args[i]
			continue
		}
		caller := args[i].Buf
		size, err := resolveSize(decl, p, args, caller)
		if err != nil {
			f.abort()
			return nil, err
		}
		// The caller's buffer must lie entirely outside the enclave,
		// or the copy could leak or clobber enclave memory.
		clk.Advance(bufferCheckCost)
		if !rt.Enclave.OutsideRange(caller.Addr, size) {
			f.abort()
			return nil, fmt.Errorf("%w: %s.%s", ErrInsecurePointer, decl.Name, p.Name)
		}
		if p.Direction == edl.ZeroCopy {
			// Outside the enclave AND inside a registered ring: the
			// trusted side reads/writes the slab in place instead of
			// staging it onto the secure heap.
			if !rt.RingBacked(caller.Addr, size) {
				f.abort()
				return nil, fmt.Errorf("%w: %s.%s", ErrNotRingBacked, decl.Name, p.Name)
			}
			clk.AdvanceF(ecallGlue[edl.ZeroCopy])
			f.args[i] = args[i]
			continue
		}
		clk.AdvanceF(ecallGlue[p.Direction])
		addr, err := rt.Enclave.Alloc(clk, size)
		if err != nil {
			f.abort()
			return nil, err
		}
		st := f.stage(i, addr, size)
		switch p.Direction {
		case edl.In, edl.InOut:
			rt.stageCopy(clk, st.Addr, caller.Addr, size)
			copy(st.Data, caller.Data[:size])
		case edl.Out:
			// Zero the enclave staging buffer so uninitialized
			// secure-heap bytes cannot leak back out.  This zeroing
			// is a real security measure (unlike the ocall-side
			// one) and is kept even under No-Redundant-Zeroing.
			rt.zero(clk, st.Addr, size)
			clear(st.Data)
		}
		f.staged = append(f.staged, stagedParam{param: p, origin: caller, staging: st, size: size})
		f.args[i] = Buf(st)
	}
	return f, nil
}
