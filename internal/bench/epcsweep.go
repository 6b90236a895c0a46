package bench

// The epc experiment reproduces the paper's oversubscription cliff
// (Section 3.4: libquantum's 96 MB working set against the 93 MB EPC)
// at experiment scale and checks the working-set estimate against it.
// A streaming working set sweeps a 16 MB EPC at fractions of capacity
// from 0.5x to 1.5x; below capacity only compulsory faults remain after
// the first sweep, while just past capacity the clock replacement
// degenerates to FIFO under the cyclic scan and *every* touch faults —
// the cliff.  Both regimes have a closed-form model (faults and
// evictions as a function of working-set pages, capacity, and sweeps),
// and the streaming drive consumes no RNG, so the measured paging
// cycles — the cycle difference against an identical run with an
// unconstrained EPC — must match the model exactly.  The same fixtures
// cross-check the working-set estimate against the true page count.

import (
	"fmt"

	"hotcalls/internal/epc"
	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
)

const (
	// epcSweepCapacity is the sweep fixture's EPC: small enough that the
	// 1.5x point stays fast, large enough that the working-set sampler
	// runs at its production sampling rate (auto bits > 0).
	epcSweepCapacity = 16 << 20 // 4096 pages
	// epcSweepRounds full passes over the working set per fixture.
	epcSweepRounds = 3
)

// epcSweepFractions are the working-set sizes as fractions of EPC
// capacity — straddling the cliff at 1.0.
var epcSweepFractions = []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5}

// epcModel returns the analytic fault/eviction counts for a cyclic
// sequential sweep: P working-set pages, C capacity pages, R rounds.
// With P <= C the first round faults every page in and later rounds
// hit; with P > C the clock algorithm degenerates to FIFO under the
// scan (the hand always evicts the page the sweep will reach next), so
// every later-round touch faults.
func epcModel(P, C, R uint64) (faults, evicts uint64) {
	faults = P
	if P > C {
		faults += (R - 1) * P
		evicts = (P - C) + (R-1)*P
	}
	return faults, evicts
}

// epcSweepPoint is one fixture's measured and modeled outcome.
type epcSweepPoint struct {
	frac                     float64
	pages                    uint64
	faults, evicts           uint64
	modelFaults, modelEvicts uint64
	pagingCycles             uint64 // measured vs an unconstrained EPC
	modelCycles              uint64
	wss                      uint64
}

// runEPCPoint drives one working-set fraction through the memory
// hierarchy twice — constrained and unconstrained EPC — and returns the
// measured-vs-model point.  The streaming sweep consumes no RNG, so the
// two runs differ only in paging work and the cycle difference is the
// paging cost exactly.
func runEPCPoint(frac float64) epcSweepPoint {
	C := uint64(epcSweepCapacity / epc.PageSize)
	P := uint64(frac * float64(C))
	wsBytes := P * epc.PageSize

	sweep := func(sys *mem.System) uint64 {
		var clk sim.Clock
		for r := 0; r < epcSweepRounds; r++ {
			sys.StreamRead(&clk, mem.EnclaveBase, wsBytes)
		}
		return clk.Now()
	}

	// Constrained run, with the working-set estimate on.  mem touches
	// the EPC once per 64-byte line, so one full pass is 64 touches per
	// page; the WSS window covers exactly one pass.
	sys := mem.NewWithEPC(sim.NewRNG(seedFor(401)), epcSweepCapacity)
	sys.EPC.TrackWSS(64 * P)
	cycles := sweep(sys)
	_, faults, evicts := sys.EPC.Stats()

	// Unconstrained baseline: same addresses, same LLC/MEE traffic, EPC
	// large enough that only the P compulsory faults remain.
	base := mem.NewWithEPC(sim.NewRNG(seedFor(401)), int(wsBytes)+16*epc.PageSize)
	baseCycles := sweep(base)

	mf, me := epcModel(P, C, epcSweepRounds)
	pt := epcSweepPoint{
		frac:         frac,
		pages:        P,
		faults:       faults,
		evicts:       evicts,
		modelFaults:  mf,
		modelEvicts:  me,
		pagingCycles: cycles - baseCycles,
		modelCycles:  (mf - P) * epc.FaultCost, // extra faults over the baseline's compulsory P
		wss:          sys.EPC.WSSPages(),
	}
	pt.modelCycles += me * epc.EWBCost
	return pt
}

// runEPCSweep regenerates the oversubscription cliff.
func runEPCSweep() *Report {
	r := &Report{
		ID:    "epc",
		Title: "EPC oversubscription cliff (paging vs analytic model)",
	}

	tbl := &table{header: []string{"ws", "pages", "faults (model)", "evicts (model)", "paging Mcyc (model)", "vs model", "wss≈"}}
	for _, frac := range epcSweepFractions {
		pt := runEPCPoint(frac)
		ratio := 1.0
		if pt.modelCycles > 0 {
			ratio = float64(pt.pagingCycles) / float64(pt.modelCycles)
			r.Values = append(r.Values, Value{
				Name: fmt.Sprintf("ws=%.2fC paging-vs-model", frac), Got: ratio, Unit: "x"})
		}
		r.Values = append(r.Values, Value{
			Name: fmt.Sprintf("ws=%.2fC faults-vs-model", frac),
			Got:  float64(pt.faults) / float64(pt.modelFaults), Unit: "x"})
		if frac == 0.9 || frac == 1.25 {
			r.Values = append(r.Values, Value{
				Name: fmt.Sprintf("ws=%.2fC wss-vs-pages", frac),
				Got:  float64(pt.wss) / float64(pt.pages), Unit: "x"})
		}
		tbl.add(
			fmt.Sprintf("%.2fC", frac),
			fmt.Sprint(pt.pages),
			fmt.Sprintf("%d (%d)", pt.faults, pt.modelFaults),
			fmt.Sprintf("%d (%d)", pt.evicts, pt.modelEvicts),
			fmt.Sprintf("%.2f (%.2f)", float64(pt.pagingCycles)/1e6, float64(pt.modelCycles)/1e6),
			f2(ratio)+"x",
			fmt.Sprint(pt.wss),
		)
	}

	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "epc", Run: runEPCSweep})
}
