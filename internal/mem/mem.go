// Package mem is the simulated memory hierarchy: it combines the last-level
// cache model, the Memory Encryption Engine cost model, and the Enclave
// Page Cache into a single System that every substrate charges its memory
// accesses through.
//
// The address space is split into a plaintext region and an enclave region;
// accesses to enclave addresses pay MEE costs and can fault pages in and
// out of the EPC.  The latency constants are calibrated against Table 1 of
// the paper (see DESIGN.md section 4).
package mem

import (
	"hotcalls/internal/cache"
	"hotcalls/internal/epc"
	"hotcalls/internal/mee"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// Address-space layout.  The enclave region sits far above plaintext
// memory; anything at or above EnclaveBase is EPC-backed and encrypted.
const (
	PlainBase   = uint64(0x0000_1000_0000)
	EnclaveBase = uint64(0x7000_0000_0000)
	LineSize    = 64
)

// Latency constants, in cycles.  Each is pinned to a row of Table 1 or to
// a decomposition documented in DESIGN.md section 4.
// DemandHitCost is the cost of a demand load/store that hits anywhere in
// the hierarchy, exported for the analytic cost model (internal/profile):
// a warm call's cache component is its touched-line count times this.
const DemandHitCost = 12

const (
	demandHitCost  = DemandHitCost
	streamHitCost  = 2    // pipelined hit during a streaming sweep
	streamLine     = 21.9 // prefetched DRAM read, per line (727 = 32 lines + fence at 2 KB)
	streamRFO      = 7    // pipelined read-for-ownership, per line
	flushLine      = 50   // clflush issue cost per line
	writebackLine  = 144  // dirty-line write-back drained by clflush
	victimWB       = 15   // overlapped write-back of an evicted dirty line
	MFenceCost     = 25
	CopyPerByte    = 0.125  // optimized memcpy: 8 bytes per cycle
	CopyAVXPerByte = 0.0416 // AVX-256 memcpy: ~24 bytes per cycle sustained
	MemsetPerByte  = 1.0    // the SDK's byte-wise memset: 1 byte per cycle
)

// dramLoad and dramStore model DRAM row-buffer outcomes for isolated
// (demand) misses: row hit, row miss, row conflict.  Medians are pinned to
// Table 1 rows 9-10 (308 load, 481 store for plaintext).
var (
	dramLoad  = sim.Mixture{Values: []float64{230, 308, 520}, Weights: []float64{0.35, 0.45, 0.20}}
	dramStore = sim.Mixture{Values: []float64{400, 481, 650}, Weights: []float64{0.35, 0.45, 0.20}}
)

// System is one simulated socket's memory hierarchy.  It is not safe for
// concurrent use; the application simulations are single-threaded
// discrete-event loops, matching the single-threaded servers in the paper.
type System struct {
	LLC *cache.Cache[uint32]
	MEE *mee.CostModel
	EPC *epc.Manager
	rng *sim.RNG

	pageFaults uint64

	// tracer records paging events with cycle timestamps; nil (a no-op)
	// unless SetTelemetry attached a registry with tracing enabled.
	tracer *telemetry.Tracer
}

// New returns a memory system with the testbed geometry: 8 MB LLC, MEE
// over the enclave region, and a 93 MB EPC.
func New(rng *sim.RNG) *System { return NewWithEPC(rng, epc.DefaultCapacityBytes) }

// NewWithEPC returns a memory system with a custom EPC capacity, used by
// the paging experiments.
func NewWithEPC(rng *sim.RNG, epcBytes int) *System {
	return &System{
		LLC: cache.New[uint32](cache.LLCConfig),
		MEE: mee.NewCostModel(),
		EPC: epc.NewManager(epcBytes),
		rng: rng,
	}
}

// IsEnclave reports whether an address lies in the encrypted enclave
// region.
func (s *System) IsEnclave(addr uint64) bool { return addr >= EnclaveBase }

// lineIndex returns the MEE line index for an enclave address.
func lineIndex(addr uint64) uint64 { return (addr - EnclaveBase) / LineSize }

// page returns the EPC page index for an enclave address.
func page(addr uint64) uint64 { return (addr - EnclaveBase) / epc.PageSize }

// PageFaults returns the cumulative number of EPC page faults charged.
func (s *System) PageFaults() uint64 { return s.pageFaults }

// SetTelemetry attaches the observability registry to the memory
// hierarchy: when its tracing is enabled, paging and MEE trace events.  A
// nil registry detaches.
func (s *System) SetTelemetry(reg *telemetry.Registry) { s.tracer = reg.Tracer() }

// touchPage charges EPC paging cost for `lines` back-to-back enclave
// accesses inside the page holding addr.  Only the first can fault, so the
// whole cost lands before the first line's cache access — where touching
// line by line charged it.
func (s *System) touchPage(clk *sim.Clock, addr uint64, lines int) {
	fault, evictions := s.EPC.Touch(page(addr), lines)
	if !fault {
		return
	}
	s.pageFaults++
	cycles := epc.FaultCycles(evictions)
	if s.tracer != nil {
		// The fault span is trap + ELDU plus the EWBs it forced.
		start := clk.Now()
		// EWB sub-spans first: the profiler's tree builder adopts
		// already-emitted spans as children of the fault.
		for i := uint64(0); i < uint64(evictions); i++ {
			s.tracer.Emit(telemetry.KindEWB, "ewb",
				start+epc.FaultCost+i*epc.EWBCost, epc.EWBCost, 0)
		}
		s.tracer.Emit(telemetry.KindEPCFault, "epc_fault", start, cycles, uint64(evictions))
	}
	clk.Advance(cycles)
}

// memSpanStart opens a deep-tracing window around a memory operation:
// it records the clock and the MEE node-cache miss count so memSpanEnd
// can attribute the operation's cycles between raw cache movement and
// MEE integrity-tree work.
func (s *System) memSpanStart(clk *sim.Clock) (start, misses uint64) {
	start = clk.Now()
	_, misses = s.MEE.NodeCacheStats()
	return start, misses
}

// memSpanEnd closes a deep-tracing window: one KindMemAccess span whose
// Arg carries the MEE-extra cycles, preceded by an instant KindMEEMiss
// event when the operation walked the integrity tree.
func (s *System) memSpanEnd(clk *sim.Clock, name string, start, missesBefore uint64, meeExtra float64) {
	if _, m := s.MEE.NodeCacheStats(); m > missesBefore {
		// Anchored at the operation's end so event end-times stay
		// monotone within a clock domain (the tree builder's invariant).
		s.tracer.Emit(telemetry.KindMEEMiss, "mee-walk", clk.Now(), 0, m-missesBefore)
	}
	s.tracer.Emit(telemetry.KindMemAccess, name, start, clk.Since(start), uint64(meeExtra+0.5))
}

// Load performs one isolated (demand) load of the line containing addr.
func (s *System) Load(clk *sim.Clock, addr uint64) { s.demand(clk, addr, false) }

// Store performs one isolated (demand) store to the line containing addr.
func (s *System) Store(clk *sim.Clock, addr uint64) { s.demand(clk, addr, true) }

// demand is the isolated access behind Load and Store.
func (s *System) demand(clk *sim.Clock, addr uint64, write bool) {
	deep := s.tracer != nil
	var start, misses uint64
	if deep {
		start, misses = s.memSpanStart(clk)
	}
	var mee float64
	enc := s.IsEnclave(addr)
	if enc {
		s.touchPage(clk, addr, 1)
	}
	hit, victim := s.LLC.Access(addr, write)
	if hit {
		clk.AdvanceF(demandHitCost)
	} else {
		var lat float64
		if write {
			lat = dramStore.Sample(s.rng)
			if enc {
				mee = s.MEE.DemandStoreExtra(lineIndex(addr))
			}
		} else {
			lat = dramLoad.Sample(s.rng)
			if enc {
				mee = s.MEE.DemandLoadExtra(lineIndex(addr))
			}
		}
		lat += mee
		if victim.Valid && victim.Dirty {
			lat += victimWB
		}
		clk.AdvanceF(lat)
	}
	if deep {
		name := "load"
		if write {
			name = "store"
		}
		s.memSpanEnd(clk, name, start, misses, mee)
	}
}

// StreamRead charges a consecutive, prefetched read sweep over
// [addr, addr+size).
func (s *System) StreamRead(clk *sim.Clock, addr, size uint64) {
	s.stream(clk, addr, size, false)
}

// StreamWrite charges a consecutive store sweep over [addr, addr+size):
// read-for-ownership fills pipelined behind the stores.
func (s *System) StreamWrite(clk *sim.Clock, addr, size uint64) {
	s.stream(clk, addr, size, true)
}

// stream is the sweep behind StreamRead and StreamWrite.  It walks the
// range one page-run at a time: the EPC is touched once per run (all its
// lines share the page, see touchPage), then the LLC sweeps the run up to
// each miss.  A run of hits is one clock advance (the clock counts whole
// cycles, so the sum is exact); a miss in enclave memory adds the MEE's
// cost.
func (s *System) stream(clk *sim.Clock, addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	deep := s.tracer != nil
	var start, misses uint64
	if deep {
		start, misses = s.memSpanStart(clk)
	}
	missCost, name := float64(streamLine), "stream-read"
	if write {
		missCost, name = streamRFO, "stream-write"
	}
	var mee float64
	enc := s.IsEnclave(addr)
	footprint := int((size + LineSize - 1) / LineSize)
	end := addr + size
	for a := s.LLC.LineAddr(addr); a < end; {
		runEnd := end
		if enc {
			// Enclave pages are aligned to EnclaveBase, itself page-aligned.
			if next := (a/epc.PageSize + 1) * epc.PageSize; next < end {
				runEnd = next
			}
			s.touchPage(clk, a, int((runEnd-a+LineSize-1)/LineSize))
		}
		for a < runEnd {
			hits, missed, victim := s.LLC.Sweep(a, int((runEnd-a+LineSize-1)/LineSize), write)
			clk.Advance(uint64(hits) * streamHitCost)
			a += uint64(hits) * LineSize
			if !missed {
				continue
			}
			lat := missCost
			if enc {
				var extra float64
				if write {
					extra = s.MEE.StreamStoreExtra(lineIndex(a), footprint)
				} else {
					extra = s.MEE.StreamLoadExtra(lineIndex(a), footprint)
				}
				mee += extra
				lat += extra
			}
			if victim.Valid && victim.Dirty {
				lat += victimWB
			}
			clk.AdvanceF(lat)
			a += LineSize
		}
	}
	if deep {
		s.memSpanEnd(clk, name, start, misses, mee)
	}
}

// Copy charges an optimized memcpy of size bytes from src to dst: the
// compute cost plus a read sweep of the source and a store sweep of the
// destination.
func (s *System) Copy(clk *sim.Clock, dst, src, size uint64) {
	clk.AdvanceF(float64(size) * CopyPerByte)
	s.StreamRead(clk, src, size)
	s.StreamWrite(clk, dst, size)
}

// MemsetByteWise charges the SGX SDK's proprietary byte-wise memset — the
// pathologically slow zeroing the paper blames for the cost of the `out`
// buffer option (Sections 3.2.1 and 3.3).
func (s *System) MemsetByteWise(clk *sim.Clock, addr, size uint64) {
	clk.AdvanceF(float64(size) * MemsetPerByte)
	s.StreamWrite(clk, addr, size)
}

// MemsetFast charges a word-wide memset, the optimization the paper
// recommends the SDK adopt (Section 3.5, "Further optimizations").
func (s *System) MemsetFast(clk *sim.Clock, addr, size uint64) {
	clk.AdvanceF(float64(size) * CopyPerByte)
	s.StreamWrite(clk, addr, size)
}

// CopyAVX charges an AVX-accelerated memcpy, the wide-register variant the
// paper suggests for large buffer transfers (Section 3.5).
func (s *System) CopyAVX(clk *sim.Clock, dst, src, size uint64) {
	clk.AdvanceF(float64(size) * CopyAVXPerByte)
	s.StreamRead(clk, src, size)
	s.StreamWrite(clk, dst, size)
}

// FlushRange issues clflush for every line in [addr, addr+size) and drains
// dirty write-backs, charging the caller (cost-free for the experiment
// harness's between-runs eviction: use EvictRange for that).
func (s *System) FlushRange(clk *sim.Clock, addr, size uint64) {
	if size == 0 {
		return
	}
	for a := s.LLC.LineAddr(addr); a < addr+size; a += LineSize {
		_, dirty := s.LLC.Flush(a)
		lat := float64(flushLine)
		if dirty {
			lat += writebackLine
		}
		clk.AdvanceF(lat)
	}
}

// MFence charges a store fence.
func (s *System) MFence(clk *sim.Clock) { clk.AdvanceF(MFenceCost) }

// EvictRange silently removes [addr, addr+size) from the cache without
// charging anyone — the harness uses it to set up cache state between
// measurements, mirroring how the paper flushes buffers "prior to every
// single measurement" outside the timed region.
func (s *System) EvictRange(addr, size uint64) { s.LLC.FlushRange(addr, size) }

// EvictAll empties the whole LLC without charging cycles (the cold-cache
// experiments of Figure 2 flush the entire 8 MB LLC before each run,
// outside the timed region).
func (s *System) EvictAll() { s.LLC.FlushAll() }
