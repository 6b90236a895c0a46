package mem

import (
	"fmt"
	"testing"

	"hotcalls/internal/epc"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// refSweep is the line-by-line sweep the page-run loop replaced, kept as
// the oracle: one EPC touch, one LLC access and one clock advance per
// line, in that order.
func refSweep(s *System, clk *sim.Clock, addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	enc := s.IsEnclave(addr)
	footprint := int((size + LineSize - 1) / LineSize)
	for a := s.LLC.LineAddr(addr); a < addr+size; a += LineSize {
		if enc {
			if fault, cycles := s.EPC.Touch(page(a)); fault {
				s.pageFaults++
				clk.AdvanceF(cycles)
			}
		}
		hit, victim := s.LLC.Access(a, write)
		if hit {
			clk.AdvanceF(streamHitCost)
			continue
		}
		lat := float64(streamLine)
		if write {
			lat = streamRFO
		}
		if enc {
			if write {
				lat += s.MEE.StreamStoreExtra(lineIndex(a), footprint)
			} else {
				lat += s.MEE.StreamLoadExtra(lineIndex(a), footprint)
			}
		}
		if victim.Valid && victim.Dirty {
			lat += victimWB
		}
		clk.AdvanceF(lat)
	}
}

func refCopy(s *System, clk *sim.Clock, dst, src, size uint64) {
	clk.AdvanceF(float64(size) * CopyPerByte)
	refSweep(s, clk, src, size, false)
	refSweep(s, clk, dst, size, true)
}

type hierarchyState struct {
	clock, pageFaults                uint64
	touches, faults, evictions       uint64
	llcAccesses, llcMisses           uint64
	meeAccesses, meeMisses, resident uint64
}

func stateOf(s *System, clk *sim.Clock) hierarchyState {
	st := hierarchyState{clock: clk.Now(), pageFaults: s.PageFaults(), resident: uint64(s.EPC.ResidentPages())}
	st.touches, st.faults, st.evictions = s.EPC.Stats()
	st.llcAccesses, st.llcMisses = s.LLC.Stats()
	st.meeAccesses, st.meeMisses = s.MEE.NodeCacheStats()
	return st
}

// TestPageRunSweepsMatchPerLineReference replays seeded sequences of
// StreamRead / StreamWrite / Copy over unaligned ranges spanning one to
// three pages, in enclave and plain memory, on an EPC of six pages — so
// faults keep forcing evictions — against the per-line reference on an
// identically seeded twin system.  Scattered lines are evicted from both
// LLCs between sweeps, so a sweep over warm lines misses mid-run.  Every
// simulated statistic must agree after every operation.
func TestPageRunSweepsMatchPerLineReference(t *testing.T) {
	const epcPages = 6
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			got := NewWithEPC(sim.NewRNG(seed), epcPages*epc.PageSize)
			ref := NewWithEPC(sim.NewRNG(seed), epcPages*epc.PageSize)
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
				before := stateOf(got, &gotClk)
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
				g, w := stateOf(got, &gotClk), stateOf(ref, &refClk)
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
	reg := telemetry.New()
	tr := reg.EnableDeepTracing(1 << 12)
	s.SetTelemetry(reg)
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
			if want := uint64(epc.FaultCycles(int(ev.Arg))); ev.Dur != want {
				t.Fatalf("fault span of %d evictions lasts %d cycles, want %d", ev.Arg, ev.Dur, want)
			}
		}
	}
	if events != faults || after == before || sum != after-before {
		t.Fatalf("%d fault events carrying %d evictions; manager counted %d faults and %d evictions",
			events, sum, faults, after-before)
	}
}
