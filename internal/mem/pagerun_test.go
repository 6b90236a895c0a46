package mem

import (
	"fmt"
	"testing"

	"hotcalls/internal/cache"
	"hotcalls/internal/epc"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// reference is a memory system driven the way the page-run loop and the
// MEE's repeat memo replaced: line by line, with an integrity-tree walk
// through nodes on every enclave miss.  The walk and its prices restate
// mee.CostModel's (node addresses, 48-node 3-way cache, stream constants,
// row pressure) without the memo, so the model's own walk is checked
// against one made every time.
type reference struct {
	*System
	nodes *cache.Cache[uint64]
}

func newReference(seed uint64, epcBytes int) *reference {
	return &reference{
		System: NewWithEPC(sim.NewRNG(seed), epcBytes),
		nodes:  cache.New[uint64](cache.Config{SizeBytes: 48 * 64, LineSize: 64, Ways: 3}),
	}
}

// streamExtra walks the MAC line and four counter levels of a data line
// and prices the misses as mee.CostModel.StreamLoadExtra and
// StreamStoreExtra do.
func (r *reference) streamExtra(line uint64, footprint int, write bool) float64 {
	misses := 0
	touch := func(addr uint64) {
		if hit, _ := r.nodes.Access(addr, false); !hit {
			misses++
		}
	}
	touch(uint64(0xF0)<<40 | line/8*64)
	idx := line
	for level := uint64(0); level < 4; level++ {
		idx /= 8
		touch(uint64(0xF1)<<40 | level<<32 | (idx+level)*64)
	}
	if write {
		return 13.0 + float64(misses)*28*0.25
	}
	return 12.4 + float64(misses)*28*min(1+float64(footprint)/1024, 1.5)
}

// refSweep is the line-by-line sweep the page-run loop replaced: one EPC
// touch, one LLC access and one clock advance per line, in that order.
func refSweep(r *reference, clk *sim.Clock, addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	enc := r.IsEnclave(addr)
	footprint := int((size + LineSize - 1) / LineSize)
	for a := r.LLC.LineAddr(addr); a < addr+size; a += LineSize {
		if enc {
			if fault, evictions := r.EPC.Touch(page(a), 1); fault {
				r.pageFaults++
				clk.Advance(epc.FaultCycles(evictions))
			}
		}
		hit, victim := r.LLC.Access(a, write)
		if hit {
			clk.AdvanceF(streamHitCost)
			continue
		}
		lat := float64(streamLine)
		if write {
			lat = streamRFO
		}
		if enc {
			lat += r.streamExtra(lineIndex(a), footprint, write)
		}
		if victim.Valid && victim.Dirty {
			lat += victimWB
		}
		clk.AdvanceF(lat)
	}
}

func refCopy(r *reference, clk *sim.Clock, dst, src, size uint64) {
	clk.AdvanceF(float64(size) * CopyPerByte)
	refSweep(r, clk, src, size, false)
	refSweep(r, clk, dst, size, true)
}

type hierarchyState struct {
	clock, pageFaults                uint64
	touches, faults, evictions       uint64
	llcAccesses, llcMisses           uint64
	meeAccesses, meeMisses, resident uint64
}

// stateOf reads every simulated statistic of s, with the MEE node cache's
// from meeStats.
func stateOf(s *System, clk *sim.Clock, meeStats func() (uint64, uint64)) hierarchyState {
	st := hierarchyState{clock: clk.Now(), pageFaults: s.PageFaults(), resident: uint64(s.EPC.ResidentPages())}
	st.touches, st.faults, st.evictions = s.EPC.Stats()
	st.llcAccesses, st.llcMisses = s.LLC.Stats()
	st.meeAccesses, st.meeMisses = meeStats()
	return st
}

// TestPageRunSweepsMatchPerLineReference replays seeded sequences of
// StreamRead / StreamWrite / Copy over unaligned ranges spanning one to
// three pages, in enclave and plain memory, on an EPC of six pages — so
// faults keep forcing evictions — against the per-line, walk-every-time
// reference on an identically seeded twin system.  Scattered lines are
// evicted from both LLCs between sweeps, so a sweep over warm lines misses
// mid-run.  Every simulated statistic must agree after every operation.
func TestPageRunSweepsMatchPerLineReference(t *testing.T) {
	const epcPages = 6
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got := NewWithEPC(sim.NewRNG(seed), epcPages*epc.PageSize)
			ref := newReference(seed, epcPages*epc.PageSize)
			var gotClk, refClk sim.Clock
			r := sim.NewRNG(seed ^ 0xabcdef)
			// Ranges start anywhere inside a 16-page window (well beyond
			// the EPC) and run for up to three pages, byte-granular.
			pick := func() (addr, size uint64) {
				base := EnclaveBase
				if r.Bool(0.25) {
					base = PlainBase
				}
				return base + uint64(r.Intn(16*epc.PageSize)), uint64(1 + r.Intn(3*epc.PageSize))
			}
			mixed := 0 // sweeps that both hit and missed in the LLC
			for i := 0; i < 3000; i++ {
				addr, size := pick()
				before := stateOf(got, &gotClk, got.MEE.NodeCacheStats)
				var op string
				switch r.Intn(4) {
				case 0:
					op = "StreamRead"
					got.StreamRead(&gotClk, addr, size)
					refSweep(ref, &refClk, addr, size, false)
				case 1:
					op = "StreamWrite"
					got.StreamWrite(&gotClk, addr, size)
					refSweep(ref, &refClk, addr, size, true)
				case 2:
					op = "Copy"
					src, _ := pick()
					got.Copy(&gotClk, addr, src, size)
					refCopy(ref, &refClk, addr, src, size)
				case 3:
					op = "EvictRange"
					for k := 0; k < 8; k++ {
						a, _ := pick()
						got.EvictRange(a, LineSize)
						ref.EvictRange(a, LineSize)
					}
				}
				g, w := stateOf(got, &gotClk, got.MEE.NodeCacheStats), stateOf(ref.System, &refClk, ref.nodes.Stats)
				if g != w {
					t.Fatalf("op %d %s(%#x, %d):\n got %+v\nwant %+v", i, op, addr, size, g, w)
				}
				if m := g.llcMisses - before.llcMisses; m > 0 && g.llcAccesses-before.llcAccesses > m {
					mixed++
				}
			}
			if mixed < 100 {
				t.Fatalf("only %d sweeps both hit and missed: the trace does not exercise mid-run misses", mixed)
			}
			if _, _, ev := got.EPC.Stats(); ev == 0 {
				t.Fatal("the trace never forced an eviction: the EPC is not under pressure")
			}
		})
	}
}

// TestFaultEventCarriesEvictionCount pins the epc_fault trace event's Arg
// to the evictions its fault forced: under an EPC smaller than the working
// set, the Args of a run sum to the manager's eviction delta.
func TestFaultEventCarriesEvictionCount(t *testing.T) {
	s := NewWithEPC(sim.NewRNG(5), 4*epc.PageSize)
	tr := telemetry.NewTracer(1 << 12)
	s.SetTracer(tr)
	var clk sim.Clock
	s.StreamWrite(&clk, EnclaveBase, 4*epc.PageSize) // fill the EPC: faults, no evictions
	_, _, before := s.EPC.Stats()
	for pass := 0; pass < 3; pass++ {
		s.StreamRead(&clk, EnclaveBase+100, 9*epc.PageSize)
		s.Load(&clk, EnclaveBase+20*epc.PageSize)
	}
	_, faults, after := s.EPC.Stats()
	var sum, events uint64
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindEPCFault {
			events++
			sum += ev.Arg
			if want := epc.FaultCycles(int(ev.Arg)); ev.Dur != want {
				t.Fatalf("fault span of %d evictions lasts %d cycles, want %d", ev.Arg, ev.Dur, want)
			}
		}
	}
	if events != faults || after == before || sum != after-before {
		t.Fatalf("%d fault events carrying %d evictions; manager counted %d faults and %d evictions",
			events, sum, faults, after-before)
	}
}
