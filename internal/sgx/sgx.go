// Package sgx is the simulated Software Guard Extensions hardware: the
// enclave lifecycle instructions (ECREATE, EADD, EEXTEND, EINIT), the
// control-transfer instructions (EENTER, EEXIT, ERESUME, AEX), enclave
// measurement, and the management structures (SECS, TCS, SSA).
//
// Control-transfer latencies follow the decomposition in DESIGN.md: each
// instruction has a fixed microcode cost plus demand touches of its
// management structures through the memory hierarchy — which is exactly why
// a cold-cache ecall costs 12,500-17,000 cycles while a warm one stays
// within 8,600-8,680 (paper, Figure 2a).
package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

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
	AEXMicrocode     = aexFixed
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

// Measurement is the SHA-256 MRENCLAVE value accumulated over the
// ECREATE/EADD/EEXTEND sequence and finalized by EINIT.
type Measurement [32]byte

func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// Attributes mirror the SECS attribute flags relevant to this model.
type Attributes struct {
	Debug  bool
	ProdID uint16
	SVN    uint16 // security version number of the enclave code
}

// SECS is the SGX Enclave Control Structure.
type SECS struct {
	Base        uint64
	Size        uint64
	Attributes  Attributes
	Measurement Measurement
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

// Platform is the simulated SGX-capable processor package: fused master
// secrets, the memory hierarchy, and the enclaves created on it.
type Platform struct {
	Mem *mem.System
	RNG *sim.RNG

	// Fused master secrets, set "at manufacturing time".  The seal
	// secret never leaves the part; the attestation secret's public
	// half is recorded by the (simulated) Intel provisioning service.
	sealSecret [32]byte

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
// hierarchy's counters through mem.System.  A nil registry detaches.
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
// deterministic fused keys derived from the seed.
func NewPlatform(seed uint64) *Platform {
	rng := sim.NewRNG(seed)
	p := &Platform{
		Mem:      mem.New(rng),
		RNG:      rng,
		enclaves: make(map[EnclaveID]*Enclave),
		nextID:   1,
		nextBase: mem.EnclaveBase,
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	p.sealSecret = sha256.Sum256(append([]byte("fused-seal-secret"), b[:]...))
	return p
}

// SealSecret exposes the fused seal master secret to the on-die consumers
// (key derivation for EREPORT and sealing).  Nothing off-die ever sees it.
func (p *Platform) SealSecret() [32]byte { return p.sealSecret }

// Enclave returns the enclave with the given ID, or nil.
func (p *Platform) Enclave(id EnclaveID) *Enclave { return p.enclaves[id] }

// Enclave is one secure enclave: its SECS, TCS pool, measurement log, and
// a bump-with-free-list heap allocator for its encrypted memory.
type Enclave struct {
	platform *Platform
	id       EnclaveID
	secs     SECS
	tcs      []*TCS
	hash     interface {
		Write([]byte) (int, error)
		Sum([]byte) []byte
	}

	codeBase uint64
	heapBase uint64
	heapNext uint64
	heapEnd  uint64
	freeList map[uint64][]uint64 // size -> addresses, so reuse keeps caches warm
}

// ECreate creates an enclave of the given virtual size with the given
// number of thread control structures.  This models the ECREATE leaf plus
// the driver's address-space reservation.
func (p *Platform) ECreate(clk *sim.Clock, size uint64, numTCS int, attr Attributes) *Enclave {
	if numTCS <= 0 {
		panic("sgx: enclave needs at least one TCS")
	}
	size = (size + PageSize - 1) / PageSize * PageSize
	e := &Enclave{
		platform: p,
		id:       p.nextID,
		secs:     SECS{Base: p.nextBase, Size: size, Attributes: attr},
		hash:     sha256.New(),
		freeList: make(map[uint64][]uint64),
	}
	p.nextID++
	// Stride enclaves apart so their pages never alias.
	stride := size + (1 << 30)
	p.nextBase += (stride + PageSize - 1) / PageSize * PageSize

	var hdr [24]byte
	copy(hdr[:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(hdr[8:], size)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(numTCS))
	e.hash.Write(hdr[:])

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

// Attributes returns the enclave's SECS attributes.
func (e *Enclave) Attributes() Attributes { return e.secs.Attributes }

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

// EAdd copies one page of content into the enclave and extends the
// measurement, modelling EADD followed by the EEXTEND sequence over the
// page (16 chunks of 256 bytes).
func (e *Enclave) EAdd(clk *sim.Clock, offset uint64, content []byte) error {
	if e.secs.Initialized {
		return ErrAlreadyInitialized
	}
	if len(content) > PageSize {
		panic("sgx: EADD content exceeds a page")
	}
	if offset%PageSize != 0 || offset+PageSize > e.secs.Size {
		panic("sgx: EADD offset out of range or unaligned")
	}
	var hdr [16]byte
	copy(hdr[:8], "EADD\x00\x00\x00\x00")
	binary.LittleEndian.PutUint64(hdr[8:], offset)
	e.hash.Write(hdr[:])

	page := make([]byte, PageSize)
	copy(page, content)
	for chunk := 0; chunk < PageSize/256; chunk++ {
		var ext [16]byte
		copy(ext[:8], "EEXTEND\x00")
		binary.LittleEndian.PutUint64(ext[8:], offset+uint64(chunk)*256)
		e.hash.Write(ext[:])
		e.hash.Write(page[chunk*256 : (chunk+1)*256])
		clk.Advance(eextendCost)
	}
	clk.Advance(eaddCostPage)
	// Fault the page resident so the enclave starts warm in the EPC.
	e.platform.Mem.EPC.Touch((e.secs.Base + offset - mem.EnclaveBase) / PageSize)
	return nil
}

// EInit finalizes the measurement and marks the enclave executable.
func (e *Enclave) EInit(clk *sim.Clock) error {
	if e.secs.Initialized {
		return ErrAlreadyInitialized
	}
	var m Measurement
	copy(m[:], e.hash.Sum(nil))
	e.secs.Measurement = m
	e.secs.Initialized = true
	clk.Advance(einitCost)
	return nil
}

// MRENCLAVE returns the finalized measurement.  It panics before EINIT.
func (e *Enclave) MRENCLAVE() Measurement {
	if !e.secs.Initialized {
		panic("sgx: measurement read before EINIT")
	}
	return e.secs.Measurement
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

// HeapRemaining returns the unallocated heap bytes (ignoring free lists).
func (e *Enclave) HeapRemaining() uint64 { return e.heapEnd - e.heapNext }

// ERemove destroys an enclave, releasing its identifier.  All thread
// control structures must have exited; destroying an enclave with a thread
// inside is the EREMOVE #GP case and is reported as ErrTCSBusy.
func (p *Platform) ERemove(clk *sim.Clock, e *Enclave) error {
	for _, t := range e.tcs {
		if t.entered {
			return ErrTCSBusy
		}
	}
	clk.Advance(ecreateCost / 2) // page teardown is cheaper than setup
	delete(p.enclaves, e.id)
	e.secs.Initialized = false
	return nil
}
