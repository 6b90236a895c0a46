// Package sgx is the simulated Software Guard Extensions hardware: the
// enclave lifecycle instructions (ECREATE, EADD, EEXTEND, EINIT) and their
// cycle charges, the control-transfer instructions (EENTER, EEXIT,
// ERESUME, AEX), and the management structures (SECS, TCS, SSA).
//
// Control-transfer latencies follow the decomposition in DESIGN.md: each
// instruction has a fixed microcode cost plus demand touches of its
// management structures through the memory hierarchy — which is exactly why
// a cold-cache ecall costs 12,500-17,000 cycles while a warm one stays
// within 8,600-8,680 (paper, Figure 2a).
package sgx

import (
	"errors"

	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// PageSize is the SGX page granularity.
const PageSize = 4096

// Microcode fixed costs in cycles (the memory touches of SECS/TCS/SSA are
// charged on top, through the memory hierarchy).
const (
	eenterFixed  = 3010
	eexitFixed   = 2610
	eresumeFixed = 3010
	aexFixed     = 5200

	ecreateCost  = 12000
	eaddCostPage = 8500 // copy a 4 KB page into EPC and hash it
	eextendCost  = 600  // per 256-byte chunk
	einitCost    = 60000
	allocCost    = 55 // trusted heap malloc/free bookkeeping
)

// Exported microcode costs for the analytic cost model (internal/profile):
// the fixed cycles each leaf instruction charges before memory touches.
const (
	EEnterMicrocode  = eenterFixed
	EExitMicrocode   = eexitFixed
	EResumeMicrocode = eresumeFixed
)

// Errors returned by the instruction set.
var (
	ErrNotInitialized     = errors.New("sgx: enclave not initialized")
	ErrAlreadyInitialized = errors.New("sgx: enclave already initialized")
	ErrTCSBusy            = errors.New("sgx: all thread control structures busy")
	ErrTCSNotEntered      = errors.New("sgx: TCS not in entered state")
	ErrOutOfMemory        = errors.New("sgx: enclave heap exhausted")
	ErrIllegalInstruction = errors.New("sgx: instruction illegal inside an enclave")
)

// EnclaveID identifies an enclave on its platform.
type EnclaveID uint64

// SECS is the SGX Enclave Control Structure.
type SECS struct {
	Base        uint64
	Size        uint64
	Initialized bool
}

// TCS is a Thread Control Structure: one per concurrently executing
// enclave thread.
type TCS struct {
	index   int
	addr    uint64
	entered bool
	cssa    int // current SSA frame (asynchronous exit depth)
}

// Entered reports whether a thread currently executes through this TCS.
func (t *TCS) Entered() bool { return t.entered }

// Platform is the simulated SGX-capable processor package: the memory
// hierarchy and the enclaves created on it.
type Platform struct {
	Mem *mem.System
	RNG *sim.RNG

	enclaves map[EnclaveID]*Enclave
	nextID   EnclaveID
	nextBase uint64

	// tel caches the platform's telemetry handles; all nil (no-op) until
	// SetTelemetry attaches a registry.
	tel platformTel
}

// platformTel is the set of cached handles the leaf instructions touch.
type platformTel struct {
	eenter, eexit, eresume, aex *telemetry.Counter
	tracer                      *telemetry.Tracer
}

// SetTelemetry attaches the observability registry to the platform: leaf
// instruction counters and boundary trace events here, and the memory
// hierarchy's trace events through mem.System.  A nil registry detaches.
func (p *Platform) SetTelemetry(reg *telemetry.Registry) {
	p.tel = platformTel{
		eenter:  reg.Counter(telemetry.MetricEEnter),
		eexit:   reg.Counter(telemetry.MetricEExit),
		eresume: reg.Counter(telemetry.MetricResume),
		aex:     reg.Counter(telemetry.MetricAEX),
		tracer:  reg.Tracer(),
	}
	p.Mem.SetTelemetry(reg)
}

// NewPlatform returns a platform with the testbed memory hierarchy and
// its random stream seeded from seed.
func NewPlatform(seed uint64) *Platform {
	rng := sim.NewRNG(seed)
	return &Platform{
		Mem:      mem.New(rng),
		RNG:      rng,
		enclaves: make(map[EnclaveID]*Enclave),
		nextID:   1,
		nextBase: mem.EnclaveBase,
	}
}

// Enclave returns the enclave with the given ID, or nil.
func (p *Platform) Enclave(id EnclaveID) *Enclave { return p.enclaves[id] }

// Enclave is one secure enclave: its SECS, TCS pool, and a
// bump-with-free-list heap allocator for its encrypted memory.
type Enclave struct {
	platform *Platform
	id       EnclaveID
	secs     SECS
	tcs      []*TCS

	codeBase uint64
	heapBase uint64
	heapNext uint64
	heapEnd  uint64
	freeList map[uint64][]uint64 // size -> addresses, so reuse keeps caches warm
}

// ECreate creates an enclave of the given virtual size with the given
// number of thread control structures.  This models the ECREATE leaf plus
// the driver's address-space reservation.
func (p *Platform) ECreate(clk *sim.Clock, size uint64, numTCS int) *Enclave {
	if numTCS <= 0 {
		panic("sgx: enclave needs at least one TCS")
	}
	size = (size + PageSize - 1) / PageSize * PageSize
	e := &Enclave{
		platform: p,
		id:       p.nextID,
		secs:     SECS{Base: p.nextBase, Size: size},
		freeList: make(map[uint64][]uint64),
	}
	p.nextID++
	// Stride enclaves apart so their pages never alias.
	stride := size + (1 << 30)
	p.nextBase += (stride + PageSize - 1) / PageSize * PageSize

	// Lay out TCS pages at the base, then SSA pages, then code/heap.
	for i := 0; i < numTCS; i++ {
		e.tcs = append(e.tcs, &TCS{index: i, addr: e.secs.Base + uint64(i)*PageSize})
	}
	// Layout: [TCS pages][SSA pages][trusted runtime code page][heap].
	e.codeBase = e.secs.Base + 2*uint64(numTCS)*PageSize
	e.heapBase = e.codeBase + PageSize
	e.heapNext = e.heapBase
	e.heapEnd = e.secs.Base + size

	clk.Advance(ecreateCost)
	p.enclaves[e.id] = e
	return e
}

// ID returns the enclave's platform-local identifier.
func (e *Enclave) ID() EnclaveID { return e.id }

// Base returns the enclave's base virtual address.
func (e *Enclave) Base() uint64 { return e.secs.Base }

// Size returns the enclave's virtual size in bytes.
func (e *Enclave) Size() uint64 { return e.secs.Size }

// Initialized reports whether EINIT has run.
func (e *Enclave) Initialized() bool { return e.secs.Initialized }

// NumTCS returns the number of thread control structures.
func (e *Enclave) NumTCS() int { return len(e.tcs) }

// InRange reports whether [addr, addr+size) lies entirely inside the
// enclave — the security check every edge call performs on pointers.
func (e *Enclave) InRange(addr, size uint64) bool {
	return addr >= e.secs.Base && addr+size <= e.secs.Base+e.secs.Size
}

// OutsideRange reports whether [addr, addr+size) lies entirely outside the
// enclave.
func (e *Enclave) OutsideRange(addr, size uint64) bool {
	return addr+size <= e.secs.Base || addr >= e.secs.Base+e.secs.Size
}

// EAdd adds the enclave page at offset, charging EADD and the EEXTEND
// sequence over the page (16 chunks of 256 bytes).  The model keeps no
// page content and no measurement: only the cycles and the EPC residency.
func (e *Enclave) EAdd(clk *sim.Clock, offset uint64) error {
	if e.secs.Initialized {
		return ErrAlreadyInitialized
	}
	if offset%PageSize != 0 || offset+PageSize > e.secs.Size {
		panic("sgx: EADD offset out of range or unaligned")
	}
	clk.Advance(PageSize/256*eextendCost + eaddCostPage)
	// Fault the page resident so the enclave starts warm in the EPC.
	e.platform.Mem.EPC.Touch((e.secs.Base+offset-mem.EnclaveBase)/PageSize, 1)
	return nil
}

// EInit marks the enclave executable, charging EINIT.
func (e *Enclave) EInit(clk *sim.Clock) error {
	if e.secs.Initialized {
		return ErrAlreadyInitialized
	}
	e.secs.Initialized = true
	clk.Advance(einitCost)
	return nil
}

// Alloc allocates size bytes of encrypted enclave heap, 64-byte aligned.
// Freed blocks of the same size are reused first, which keeps the SDK's
// marshalling staging buffers cache-warm across calls, as on real hardware.
func (e *Enclave) Alloc(clk *sim.Clock, size uint64) (uint64, error) {
	clk.Advance(allocCost)
	size = (size + 63) / 64 * 64
	if list := e.freeList[size]; len(list) > 0 {
		addr := list[len(list)-1]
		e.freeList[size] = list[:len(list)-1]
		return addr, nil
	}
	if e.heapNext+size > e.heapEnd {
		return 0, ErrOutOfMemory
	}
	addr := e.heapNext
	e.heapNext += size
	return addr, nil
}

// Free returns a block to the allocator.
func (e *Enclave) Free(clk *sim.Clock, addr, size uint64) {
	clk.Advance(allocCost)
	size = (size + 63) / 64 * 64
	e.freeList[size] = append(e.freeList[size], addr)
}
