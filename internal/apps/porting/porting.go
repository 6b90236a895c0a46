// Package porting implements the paper's Section 6.1 application-porting
// framework: the whole application moves into the enclave behind a
// main-wrapper ecall, every external API reference becomes a generated
// ocall with a trusted wrapper and an untrusted landing function, and
// per-call counters feed Table 2.
//
// The same application logic runs in four configurations:
//
//	Native       — no enclave: API calls go straight to the kernel.
//	SGX          — the unoptimized port: SDK ecalls/ocalls.
//	HotCalls     — the paper's interface (Section 4).
//	HotCallsNRZ  — HotCalls plus No-Redundant-Zeroing.
package porting

import (
	"fmt"

	"hotcalls/internal/core"
	"hotcalls/internal/edl"
	"hotcalls/internal/mem"
	"hotcalls/internal/osapi"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

// Mode selects the port configuration.
type Mode int

// Port configurations, matching the bars of Figures 10 and 11.
const (
	Native Mode = iota
	SGX
	HotCalls
	HotCallsNRZ
)

func (m Mode) String() string {
	switch m {
	case Native:
		return "native"
	case SGX:
		return "sgx"
	case HotCalls:
		return "hotcalls"
	case HotCallsNRZ:
		return "hotcalls+nrz"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes lists all four configurations in figure order.
var Modes = []Mode{Native, SGX, HotCalls, HotCallsNRZ}

// Env is the execution environment handed to application logic: a clock
// plus the mode-appropriate way to reach the OS.
type Env struct {
	Clk *sim.Clock
	App *App

	sdkCtx     *sdk.Ctx // set while running under an SDK ecall
	tlbFlushed bool     // enclave TLB state after the last transition
}

// OCall reaches an untrusted API function through the configured
// interface: a direct call (native), an SDK ocall, or a HotCall.
func (e *Env) OCall(name string, args ...sdk.Arg) (uint64, error) {
	if e.App.Prof != nil {
		defer e.App.Prof.Enter(e.Clk, CatEdgeCalls)()
	}
	switch e.App.Mode {
	case Native:
		b, err := e.App.RT.UntrustedBinding(name)
		if err != nil {
			return 0, err
		}
		return e.App.RT.CallNative(e.Clk, b, args), nil
	case SGX:
		if e.sdkCtx == nil {
			return 0, sdk.ErrOCallOutsideCall
		}
		ret, err := e.sdkCtx.OCall(name, args...)
		// EEXIT/ERESUME invalidated the enclave's TLB entries.
		e.tlbFlushed = true
		return ret, err
	default:
		return e.App.Chan.HotOCall(e.Clk, name, args...)
	}
}

// App is one ported application instance: the platform, the kernel its
// landing functions talk to, and the enclave runtime for the secure modes.
type App struct {
	Mode     Mode
	Platform *sgx.Platform
	Kernel   *osapi.Kernel
	Enclave  *sgx.Enclave
	RT       *sdk.Runtime
	Chan     *core.Channel

	// Prof, when non-nil, receives the cycle-attribution breakdown
	// (see profile.go).
	Prof *Profile

	regionNext uint64  // bump cursor for ReserveRegion
	aexRate    float64 // asynchronous exits per second (see aex.go)
}

// Config describes the enclave to build for the secure modes.
type Config struct {
	Seed        uint64
	EnclaveSize uint64 // virtual size; also bounds the secure heap
	NumTCS      int
	CodePages   int // pages of application code measured in at load
	EPCBytes    int // 0 = the testbed default (93 MB)
}

// New builds an application container in the given mode.  The EDL source
// declares the app's edge interface, exactly as the Section 6.1 framework
// generates it from the undefined-reference list, and each declared ocall
// the framework has a landing function for is bound to it (landing.go).
func New(mode Mode, cfg Config, edlSrc string) *App {
	p := sgx.NewPlatform(cfg.Seed)
	if cfg.EPCBytes > 0 {
		p.Mem = mem.NewWithEPC(p.RNG, cfg.EPCBytes)
	}
	var clk sim.Clock
	if cfg.EnclaveSize == 0 {
		cfg.EnclaveSize = 256 << 20
	}
	if cfg.NumTCS == 0 {
		cfg.NumTCS = 4
	}
	if cfg.CodePages == 0 {
		cfg.CodePages = 16
	}
	e := p.ECreate(&clk, cfg.EnclaveSize, cfg.NumTCS)
	for i := 0; i < cfg.CodePages; i++ {
		if err := e.EAdd(&clk, uint64(i)*sgx.PageSize); err != nil {
			panic(err)
		}
	}
	if err := e.EInit(&clk); err != nil {
		panic(err)
	}
	rt := sdk.New(p, e, edl.MustParse(edlSrc))
	rt.NoRedundantZeroing = mode == HotCallsNRZ
	app := &App{
		Mode:     mode,
		Platform: p,
		Kernel:   osapi.NewKernel(p.Mem),
		Enclave:  e,
		RT:       rt,
		Chan:     core.NewChannel(rt, p.RNG),
	}
	app.bindLandings()
	return app
}

// BindTrusted registers application logic for a declared ecall.  The
// handler receives an Env whose OCall routes through the app's mode; the
// Env lives in the call's frame (sdk.Ctx.Host) and is reused, like the
// argument list, once the handler has returned.
func (a *App) BindTrusted(name string, fn func(*Env, []sdk.Arg) uint64) {
	a.RT.MustBindECall(name, func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		env, _ := ctx.Host.(*Env)
		if env == nil {
			env = new(Env)
			ctx.Host = env
		}
		// Under the SDK interface the handler starts with a freshly
		// flushed enclave TLB (EENTER invalidates it).
		*env = Env{Clk: ctx.Clk, App: a, sdkCtx: ctx, tlbFlushed: true}
		return fn(env, args)
	})
}

// Call invokes a trusted entry point through the configured interface —
// the RunEnclaveFunction pattern of Section 6.2 for event callbacks into
// the enclave.
func (a *App) Call(clk *sim.Clock, name string, args ...sdk.Arg) (uint64, error) {
	if a.Prof != nil {
		defer a.Prof.Enter(clk, CatEdgeCalls)()
	}
	switch a.Mode {
	case Native:
		b, err := a.RT.TrustedBinding(name)
		if err != nil {
			return 0, err
		}
		return a.RT.CallNative(clk, b, args), nil
	case SGX:
		return a.RT.ECall(clk, name, args...)
	default:
		return a.Chan.HotECall(clk, name, args...)
	}
}

// Secure reports whether the app runs inside an enclave.
func (a *App) Secure() bool { return a.Mode != Native }

// AllocBuffer allocates an application data buffer in the mode's memory:
// secure heap for enclave modes, untrusted arena for native.
func (a *App) AllocBuffer(clk *sim.Clock, size uint64) *sdk.Buffer {
	if !a.Secure() {
		return a.RT.Arena.AllocBuffer(clk, size)
	}
	addr, err := a.Enclave.Alloc(clk, size)
	if err != nil {
		panic(err)
	}
	return &sdk.Buffer{Addr: addr, Data: make([]byte, size)}
}

// ReserveRegion reserves an address range of the given size in the mode's
// memory for cost-model addressing of bulk data (the memcached value
// store, the libquantum array).  No backing is allocated; accesses are
// charged through the memory system.
func (a *App) ReserveRegion(size uint64) uint64 {
	var base uint64
	if a.Secure() {
		base = a.Enclave.Base() + a.Enclave.Size() + (64 << 10) // still EPC-backed address space
	} else {
		base = mem.PlainBase + (4 << 30)
	}
	addr := base + a.regionNext
	a.regionNext += (size + 4095) / 4096 * 4096
	return addr
}

// Counters returns the per-edge-call counts (Table 2 instrumentation).
func (a *App) Counters() map[string]uint64 { return a.RT.Counters() }

// ResetCounters clears instrumentation between warmup and measurement.
func (a *App) ResetCounters() {
	a.RT.ResetCounters()
}
