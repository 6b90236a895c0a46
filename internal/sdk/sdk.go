// Package sdk reimplements the Intel SGX SDK's untrusted and trusted
// runtimes for the simulated platform: ecall dispatch (enclave lookup, TCS
// acquisition, AVX state save, parameter marshalling), ocall frames on the
// untrusted stack, and the edger8r-generated glue semantics for the
// [in]/[out]/[in,out]/[user_check]/[string] pointer attributes — including
// the SDK's notoriously byte-wise memset used to zero `out` buffers, and
// the No-Redundant-Zeroing variant the paper evaluates in Section 6.
//
// The cost decomposition of each path is calibrated so empty warm-cache
// ecalls and ocalls land on the paper's 8,640 / 8,314 cycle medians; cold
// costs, buffer-transfer costs, and in-application costs all emerge from
// the shared memory hierarchy.
package sdk

import (
	"errors"
	"fmt"

	"hotcalls/internal/edl"
	"hotcalls/internal/mem"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// Errors returned by the call paths.
var (
	ErrUnknownFunction  = errors.New("sdk: function not declared in the EDL file")
	ErrNotBound         = errors.New("sdk: function declared but no implementation bound")
	ErrArgCount         = errors.New("sdk: argument count does not match declaration")
	ErrArgKind          = errors.New("sdk: scalar passed for pointer parameter or vice versa")
	ErrInsecurePointer  = errors.New("sdk: pointer fails the enclave boundary check")
	ErrOCallNotAllowed  = errors.New("sdk: nested ecall not in the pending ocall's allow list")
	ErrOCallOutsideCall = errors.New("sdk: ocall issued with no thread inside the enclave")
	ErrBufferTooSmall   = errors.New("sdk: declared size exceeds the provided buffer")
	ErrNoNUL            = errors.New("sdk: [string] buffer has no NUL terminator")
	ErrNotRingBacked    = errors.New("sdk: [zerocopy] buffer is not inside a registered shared payload ring")
)

// Buffer is a pointer parameter's backing: a simulated address plus the
// real bytes at that address.  Marshalling really copies the bytes, so the
// data path is testable end to end, while the cycle cost of each copy is
// charged through the memory hierarchy.
type Buffer struct {
	Addr uint64
	Data []byte
}

// Arg is one call argument: either a scalar or a buffer.
type Arg struct {
	Scalar uint64
	Buf    *Buffer
}

// Scalar wraps a by-value argument.
func Scalar(v uint64) Arg { return Arg{Scalar: v} }

// Buf wraps a pointer argument.
func Buf(b *Buffer) Arg { return Arg{Buf: b} }

// Handler implements an edge function.  For ecalls it runs "inside" the
// enclave; for ocalls it is the untrusted landing function.  The returned
// value is the function's scalar result.
type Handler func(ctx *Ctx, args []Arg) uint64

// OCallRouter overrides how a context's OCall reaches untrusted code.
// The HotCalls channel implements it: a trusted handler running on the
// resident enclave worker has no TCS in the "entered" state — its
// out-calls go through shared memory instead of EEXIT/ERESUME.
type OCallRouter interface {
	RouteOCall(clk *sim.Clock, name string, args ...Arg) (uint64, error)
}

// Ctx is the execution context passed to handlers.  Trusted handlers use
// it to issue ocalls.  Like the argument list it belongs to the call: the
// runtime reuses it once the call has finished.
type Ctx struct {
	Clk    *sim.Clock
	RT     *Runtime
	TCS    *sgx.TCS
	Router OCallRouter // set when the handler runs under HotCalls

	// Host is for the layer that bound the handler: what it stores here
	// stays with the call frame and is handed back to the next call at the
	// same nesting depth, so per-call state above the SDK (the porting
	// framework's Env) need not be allocated per call.
	Host any
}

// Binding is a bound edge function, what a call path holds after resolving
// the name once: the declaration, the implementation, and the Table 2
// instrumentation counter.
type Binding struct {
	Decl  *edl.Func
	Fn    Handler
	calls uint64
}

// Count books a call made outside the SDK paths (HotCalls and native calls
// come through here so Table 2 sees them).
func (b *Binding) Count() { b.calls++ }

// Runtime is the SDK runtime for one enclave: the bound edge functions,
// the untrusted arena and stack, and the per-call counters that the
// Section 6.1 porting framework uses to produce Table 2.
type Runtime struct {
	Platform *sgx.Platform
	Enclave  *sgx.Enclave
	EDL      *edl.File
	Arena    *Arena

	// NoRedundantZeroing skips the security-irrelevant zeroing of
	// untrusted staging buffers for ocall [out] parameters
	// (Section 3.3: "zeroing the buffer in the insecure memory has no
	// security benefit").
	NoRedundantZeroing bool

	// OptimizedMemops replaces the SDK's byte-wise memset with a
	// word-wide one and uses AVX memcpy for buffer staging — the
	// "Further optimizations" the paper recommends Intel adopt
	// (Section 3.5).  Unlike NoRedundantZeroing it keeps every zeroing,
	// so it is safe even for the ecall [out] path.
	OptimizedMemops bool

	ecalls map[string]*Binding
	ocalls map[string]*Binding

	ocallStack []string // pending ocalls, for allow-list enforcement
	stackTop   uint64   // untrusted stack cursor (alloca)

	// Marshalling state reused from call to call (see staging.go): one
	// frame per nesting depth, and the LIFO byte backing of staged
	// parameters.  poison fills released scratch with 0xDB, so a handler
	// that keeps a staged slice past its call reads garbage in tests.
	frames     []*callFrame
	depth      int
	scratch    []byte
	scratchTop int
	poison     bool

	// tracer records one span per boundary crossing and per phase; nil
	// (a no-op) until SetTracer.
	tracer *telemetry.Tracer

	// sharedRings are the registered zero-copy payload-ring regions.
	// A [zerocopy] pointer parameter must lie entirely inside one of
	// them; the marshalling core then skips staging and copies for it
	// (see staging.go).
	sharedRings []ringRegion

	// stagedBytes counts every byte the marshalling core moves through a
	// staging copy (stageCopy), in either direction.  Direction-aware
	// staging is measurable through it: an out-only parameter pays only
	// the copy-back, half the bytes of an in,out one.
	stagedBytes uint64
}

// ringRegion is one registered shared-ring address range.
type ringRegion struct{ base, size uint64 }

// RegisterSharedRing registers [base, base+size) as zero-copy ring
// memory.  The region must lie entirely outside the enclave — ring
// payloads are by construction untrusted shared memory — and
// registration is what distinguishes a deliberate [zerocopy] buffer
// from an arbitrary unchecked pointer (contrast [user_check]).
func (rt *Runtime) RegisterSharedRing(base, size uint64) error {
	if size == 0 {
		return fmt.Errorf("%w: empty ring region", ErrNotRingBacked)
	}
	if !rt.Enclave.OutsideRange(base, size) {
		return fmt.Errorf("%w: ring region overlaps the enclave", ErrInsecurePointer)
	}
	rt.sharedRings = append(rt.sharedRings, ringRegion{base: base, size: size})
	return nil
}

// RingBacked reports whether [addr, addr+size) lies entirely inside one
// registered shared-ring region.
func (rt *Runtime) RingBacked(addr, size uint64) bool {
	for _, r := range rt.sharedRings {
		if addr >= r.base && addr+size <= r.base+r.size {
			return true
		}
	}
	return false
}

// StagedBytes returns the cumulative bytes moved by marshalling staging
// copies since the runtime was created.
func (rt *Runtime) StagedBytes() uint64 { return rt.stagedBytes }

// SetTracer attaches a tracer to the SDK runtime: one span per boundary
// crossing and per phase.  A nil tracer detaches.
func (rt *Runtime) SetTracer(tr *telemetry.Tracer) { rt.tracer = tr }

// Fixed plain-memory landmarks of the untrusted runtime.  Keeping them at
// stable addresses means repeated calls find them cache-warm, exactly as
// the SDK's data structures behave on real hardware.
const (
	lookupLineAddr = mem.PlainBase + 0x100 // enclave-ID lookup structure
	tcsLockAddr    = mem.PlainBase + 0x140 // TCS pool read/write lock
	avxSaveAddr    = mem.PlainBase + 0x200 // XSAVE area (3 lines modelled)
	marshalAddr    = mem.PlainBase + 0x400 // ecall marshalling struct
	ocallTableAddr = mem.PlainBase + 0x600 // ocall dispatch table
	stackBase      = mem.PlainBase + 0x10000
	stackSize      = 1 << 20
	osCodeAddr     = mem.PlainBase + 0x1000 // libc/OS entry code lines
	arenaBase      = mem.PlainBase + 0x40_0000
	arenaSize      = 1 << 30
)

const avxLines = 3

// New returns a runtime for the enclave with the given EDL interface.
func New(p *sgx.Platform, e *sgx.Enclave, f *edl.File) *Runtime {
	rt := &Runtime{
		Platform: p,
		Enclave:  e,
		EDL:      f,
		Arena:    NewArena(arenaBase, arenaSize),
		ecalls:   make(map[string]*Binding),
		ocalls:   make(map[string]*Binding),
		stackTop: stackBase,
		poison:   poisonStaging,
	}
	return rt
}

// BindECall attaches the trusted implementation of a declared ecall.
func (rt *Runtime) BindECall(name string, fn Handler) error {
	decl := rt.EDL.TrustedFunc(name)
	if decl == nil {
		return fmt.Errorf("%w: %s", ErrUnknownFunction, name)
	}
	bind(rt.ecalls, decl, fn)
	return nil
}

// BindOCall attaches the untrusted landing function of a declared ocall.
func (rt *Runtime) BindOCall(name string, fn Handler) error {
	decl := rt.EDL.UntrustedFunc(name)
	if decl == nil {
		return fmt.Errorf("%w: %s", ErrUnknownFunction, name)
	}
	bind(rt.ocalls, decl, fn)
	return nil
}

// bind installs fn as the implementation of decl; rebinding a function
// keeps its call count.
func bind(table map[string]*Binding, decl *edl.Func, fn Handler) {
	b := &Binding{Decl: decl, Fn: fn}
	if old := table[decl.Name]; old != nil {
		b.calls = old.calls
	}
	table[decl.Name] = b
}

// TrustedBinding resolves a bound ecall.
func (rt *Runtime) TrustedBinding(name string) (*Binding, error) {
	if b := rt.ecalls[name]; b != nil {
		return b, nil
	}
	return nil, unbound(name, rt.EDL.TrustedFunc(name))
}

// UntrustedBinding resolves a bound ocall.
func (rt *Runtime) UntrustedBinding(name string) (*Binding, error) {
	if b := rt.ocalls[name]; b != nil {
		return b, nil
	}
	return nil, unbound(name, rt.EDL.UntrustedFunc(name))
}

// unbound says why a name has no binding: not declared, or declared and
// never bound.
func unbound(name string, decl *edl.Func) error {
	if decl == nil {
		return fmt.Errorf("%w: %s", ErrUnknownFunction, name)
	}
	return fmt.Errorf("%w: %s", ErrNotBound, name)
}

// MustBindECall is BindECall that panics on error.
func (rt *Runtime) MustBindECall(name string, fn Handler) {
	if err := rt.BindECall(name, fn); err != nil {
		panic(err)
	}
}

// MustBindOCall is BindOCall that panics on error.
func (rt *Runtime) MustBindOCall(name string, fn Handler) {
	if err := rt.BindOCall(name, fn); err != nil {
		panic(err)
	}
}

// Counters returns a snapshot of per-function call counts — the porting
// framework's instrumentation behind Table 2.
func (rt *Runtime) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, table := range []map[string]*Binding{rt.ecalls, rt.ocalls} {
		for name, b := range table {
			if b.calls > 0 {
				out[name] += b.calls
			}
		}
	}
	return out
}

// ResetCounters zeroes the call counters.
func (rt *Runtime) ResetCounters() {
	for _, table := range []map[string]*Binding{rt.ecalls, rt.ocalls} {
		for _, b := range table {
			b.calls = 0
		}
	}
}

// stackAlloc models alloca on the untrusted stack: pointer bump, no malloc
// (Section 3.3: "no use of malloc here").
func (rt *Runtime) stackAlloc(clk *sim.Clock, size uint64) uint64 {
	clk.Advance(allocaCost)
	addr := rt.stackTop
	rt.stackTop += (size + 63) / 64 * 64
	if rt.stackTop > stackBase+stackSize {
		panic("sdk: untrusted stack overflow")
	}
	return addr
}

// stackFrame returns the current cursor; restoring it frees everything the
// frame allocated, like unwinding the insecure stack on enclave re-entry.
func (rt *Runtime) stackFrame() uint64        { return rt.stackTop }
func (rt *Runtime) stackRestore(frame uint64) { rt.stackTop = frame }

// cTypeSize gives sizeof() for the C type spellings edger8r understands;
// [count=n] parameters transfer n * sizeof(type) bytes.
func cTypeSize(typ string) uint64 {
	switch typ {
	case "char", "uint8_t", "int8_t", "void", "unsigned char":
		return 1
	case "short", "uint16_t", "int16_t", "unsigned short":
		return 2
	case "int", "uint32_t", "int32_t", "unsigned", "unsigned int", "float":
		return 4
	default:
		// long, size_t, uint64_t, double, pointers, structs treated as
		// 8-byte words, the common case on x86-64.
		return 8
	}
}

// resolveSize computes a pointer parameter's transfer size per its EDL
// attributes, matching edger8r's generated logic.
func resolveSize(decl *edl.Func, p *edl.Param, args []Arg, buf *Buffer) (uint64, error) {
	scalarOf := func(name string) (uint64, error) {
		for i := range decl.Params {
			if decl.Params[i].Name == name {
				return args[i].Scalar, nil
			}
		}
		return 0, fmt.Errorf("%w: %s.%s", ErrUnknownFunction, decl.Name, name)
	}
	bounded := func(size uint64) (uint64, error) {
		if size > uint64(len(buf.Data)) {
			return 0, fmt.Errorf("%w: %s.%s (%d > %d)",
				ErrBufferTooSmall, decl.Name, p.Name, size, len(buf.Data))
		}
		return size, nil
	}
	switch {
	case p.IsString:
		for i, b := range buf.Data {
			if b == 0 {
				return uint64(i + 1), nil
			}
		}
		return 0, fmt.Errorf("%w: %s.%s", ErrNoNUL, decl.Name, p.Name)
	case p.SizeParam != "":
		size, err := scalarOf(p.SizeParam)
		if err != nil {
			return 0, err
		}
		return bounded(size)
	case p.CountParm != "":
		count, err := scalarOf(p.CountParm)
		if err != nil {
			return 0, err
		}
		return bounded(count * cTypeSize(p.Type))
	case p.SizeConst != 0:
		return bounded(p.SizeConst)
	default:
		return uint64(len(buf.Data)), nil
	}
}

// checkArgs validates the argument list against the declaration.
func checkArgs(decl *edl.Func, args []Arg) error {
	if len(args) != len(decl.Params) {
		return fmt.Errorf("%w: %s takes %d, got %d", ErrArgCount, decl.Name, len(decl.Params), len(args))
	}
	for i := range decl.Params {
		isPtr := decl.Params[i].Pointer
		hasBuf := args[i].Buf != nil
		if isPtr != hasBuf && hasBuf {
			return fmt.Errorf("%w: %s.%s", ErrArgKind, decl.Name, decl.Params[i].Name)
		}
	}
	return nil
}
