package sgx

import (
	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// This file models the control-transfer leaf instructions.  Each charges a
// fixed microcode cost — the defensive checks, debug-suppression, and
// register save/restore the SDM describes — plus demand touches of the
// management structures (SECS, TCS, SSA) and the target code/stack lines
// through the memory hierarchy.  When those lines were evicted (the paper's
// cold-cache runs flush the whole 8 MB LLC), each touch becomes an
// encrypted-memory demand miss, which is what stretches the 8,640-cycle
// warm ecall to 12,500-17,000 cycles.

// touch spans for one control transfer, in cache lines.
const (
	secsLines        = 1
	tcsLines         = 2
	ssaLines         = 1
	trustedCodeLines = 1
	trustedStackLine = 1
)

// Touched-line totals per leaf instruction, exported for the analytic
// cost model (internal/profile): a warm crossing's cache component is
// these counts times mem.DemandHitCost.
const (
	EnterTouchLines  = secsLines + tcsLines + ssaLines + trustedCodeLines + trustedStackLine
	ExitTouchLines   = tcsLines + 2 // TCS plus the saved untrusted context
	ResumeTouchLines = EnterTouchLines
)

func (e *Enclave) touchEnclaveEntryState(clk *sim.Clock, tcs *TCS) {
	m := e.platform.Mem
	// SECS sits conceptually at the enclave base; TCS pages follow.
	m.Load(clk, e.secs.Base)
	for i := 0; i < tcsLines; i++ {
		m.Load(clk, tcs.addr+uint64(i)*mem.LineSize)
	}
	ssaBase := tcs.addr + PageSize*uint64(len(e.tcs))
	for i := 0; i < ssaLines; i++ {
		m.Store(clk, ssaBase+uint64(i)*mem.LineSize)
	}
	for i := 0; i < trustedCodeLines; i++ {
		m.Load(clk, e.codeBase+uint64(i)*mem.LineSize)
	}
	m.Store(clk, e.codeBase+PageSize/2) // trusted stack line
}

// leafEvent traces a completed leaf instruction's span under the
// instruction's name.
func (e *Enclave) leafEvent(kind telemetry.Kind, name string, clk *sim.Clock, start uint64) {
	if tr := e.platform.tracer; tr != nil {
		tr.Emit(kind, name, start, clk.Since(start), uint64(e.id))
	}
}

// EEnter performs the secure context switch into the enclave on the given
// TCS.  The enclave must be initialized and the TCS free.
func (e *Enclave) EEnter(clk *sim.Clock, tcs *TCS) error {
	if !e.secs.Initialized {
		return ErrNotInitialized
	}
	if tcs.entered {
		return ErrTCSBusy
	}
	start := clk.Now()
	clk.Advance(eenterFixed)
	e.touchEnclaveEntryState(clk, tcs)
	tcs.entered = true
	e.leafEvent(telemetry.KindEEnter, "eenter", clk, start)
	return nil
}

// EExit performs the reverse context switch back to untrusted code.
func (e *Enclave) EExit(clk *sim.Clock, tcs *TCS) error {
	if !tcs.entered {
		return ErrTCSNotEntered
	}
	start := clk.Now()
	clk.Advance(eexitFixed)
	// The exit path touches the same TCS/SSA lines (warm if just
	// entered) and the untrusted return context.
	m := e.platform.Mem
	for i := 0; i < tcsLines; i++ {
		m.Load(clk, tcs.addr+uint64(i)*mem.LineSize)
	}
	m.Load(clk, mem.PlainBase+untrustedContextOff) // saved RSP/RBP area
	m.Load(clk, mem.PlainBase+untrustedContextOff+mem.LineSize)
	tcs.entered = false
	e.leafEvent(telemetry.KindEExit, "eexit", clk, start)
	return nil
}

// EResume re-enters the enclave after an ocall or asynchronous exit,
// restoring the trusted context from the SSA.
func (e *Enclave) EResume(clk *sim.Clock, tcs *TCS) error {
	if !e.secs.Initialized {
		return ErrNotInitialized
	}
	if tcs.entered {
		return ErrTCSBusy
	}
	start := clk.Now()
	clk.Advance(eresumeFixed)
	e.touchEnclaveEntryState(clk, tcs)
	tcs.entered = true
	e.leafEvent(telemetry.KindEResume, "eresume", clk, start)
	return nil
}

// AEX models an asynchronous exit: the hardware dumps the trusted context
// into the next SSA frame and transfers to the untrusted AEX landing pad.
// The thread must later ERESUME.
func (e *Enclave) AEX(clk *sim.Clock, tcs *TCS) error {
	if !tcs.entered {
		return ErrTCSNotEntered
	}
	start := clk.Now()
	clk.Advance(aexFixed)
	ssaBase := tcs.addr + PageSize*uint64(len(e.tcs))
	m := e.platform.Mem
	for i := 0; i < 4; i++ { // full register file dump: 4 lines
		m.Store(clk, ssaBase+uint64(i)*mem.LineSize)
	}
	tcs.cssa++
	tcs.entered = false
	e.leafEvent(telemetry.KindAEX, "aex", clk, start)
	return nil
}

// ResumeFromAEX is ERESUME from an asynchronous exit: it pops the SSA
// frame.
func (e *Enclave) ResumeFromAEX(clk *sim.Clock, tcs *TCS) error {
	if tcs.cssa == 0 {
		return ErrTCSNotEntered
	}
	if err := e.EResume(clk, tcs); err != nil {
		return err
	}
	tcs.cssa--
	return nil
}

// AcquireTCS finds a free TCS, models the SDK's read/write-locked search of
// the TCS pool, and reserves it (the reservation is released by EExit).
// It returns ErrTCSBusy when every TCS is entered.
func (e *Enclave) AcquireTCS() (*TCS, error) {
	for _, t := range e.tcs {
		if !t.entered {
			return t, nil
		}
	}
	return nil, ErrTCSBusy
}

// TCSByIndex returns the i-th thread control structure.
func (e *Enclave) TCSByIndex(i int) *TCS { return e.tcs[i] }

// untrustedContextOff positions the saved untrusted context (stack, ocall
// frame anchors) within plaintext memory.
const untrustedContextOff = 0x2000

// RDTSCP inside an enclave generates a fault on SGX1 hardware (paper,
// Section 3.1): the simulation surfaces that as an error.
func (e *Enclave) RDTSCP() error { return ErrIllegalInstruction }
