// Package mee models the Memory Encryption Engine that protects the
// Enclave Page Cache (Gueron, "A Memory Encryption Engine Suitable for
// General Purpose Processors"; cited as [19] by the paper) as a calibrated
// latency model: CostModel answers "how many extra cycles does an
// encrypted-memory access cost?", reproducing the paper's microbenchmarks
// 7-10 (Figures 6-8).  The growth of read overhead with buffer size (54.5%
// at 2 KB to 102% at 32 KB) emerges from misses in the MEE's internal cache
// of tree nodes.
package mee

import (
	"hotcalls/internal/cache"
	"hotcalls/internal/telemetry"
)

// CostModel answers "how many extra cycles does an access to encrypted
// memory cost, over the same access to plaintext memory?".  It reproduces
// the paper's microbenchmarks 7-10 and Figures 6-8.
//
// Mechanism (matching Section 3.4 of the paper): every encrypted line has a
// version counter and a MAC in dedicated DRAM regions, organised as an
// 8-ary tree rooted on-die.  A line access needs the covering MAC line and
// counter-tree nodes; the MEE keeps recently used nodes in a small internal
// cache, so small working sets walk the tree almost for free while large
// ones pay DRAM fetches for the metadata.  Decryption latency itself is
// pipelined under streaming (prefetched) access but fully exposed on an
// isolated demand miss — which is why the paper sees +12 cycles/line on
// consecutive reads of a cached-tree buffer but +92 cycles on a single
// cache-load miss (400 vs 308 cycles).
type CostModel struct {
	nodeCache *cache.Cache[uint64]

	// Telemetry handles (nil when observability is off; nil handles are
	// no-ops).  The tree walk runs for every encrypted line, so these are
	// cached counters, never registry lookups.
	nodeHits   *telemetry.Counter
	nodeMisses *telemetry.Counter

	// Calibrated constants.  See DESIGN.md section 4 for how each is
	// pinned to a row of Table 1.
	demandLoadLatency  float64 // exposed decrypt latency: 400-308
	demandStoreLatency float64 // exposed RMW latency:     575-481
	streamLoadPerLine  float64 // pipelined decrypt: (1124-727)/32
	streamStorePerLine float64 // pipelined encrypt: (6875-6458)/32
	nodeFetchCost      float64 // DRAM fetch of one tree node
	storeFetchScale    float64 // counter write-combining amortisation
}

// nodeCacheConfig is the MEE's internal metadata cache: 48 nodes of 64
// bytes, 16 sets x 3 ways.  Its capacity is what makes read overhead grow
// with buffer footprint in Figure 6: a 2 KB sweep's metadata fits and walks
// free, a 16 KB sweep's does not and pays a DRAM fetch per node.
var nodeCacheConfig = cache.Config{SizeBytes: 48 * 64, LineSize: 64, Ways: 3}

// NewCostModel returns a cost model with the calibrated testbed constants.
func NewCostModel() *CostModel {
	return &CostModel{
		nodeCache:          cache.New[uint64](nodeCacheConfig),
		demandLoadLatency:  92,
		demandStoreLatency: 94,
		streamLoadPerLine:  12.4,
		streamStorePerLine: 13.0,
		nodeFetchCost:      28,
		storeFetchScale:    0.25,
	}
}

// LineSize is the protection granularity: one cache line.
const LineSize = 64

// Arity is the fan-out of the counter tree: one 64-byte counter node holds
// eight 56-bit counters, each covering one child.
const Arity = 8

// Tree-node synthetic addresses.  Metadata regions live far above any data
// address so they never collide in the node cache's index space.
const (
	macRegion = uint64(0xF0) << 40
	ctrRegion = uint64(0xF1) << 40
	levelBits = 32
)

// macNodeAddr returns the address of the MAC line covering a data line
// (one 64-byte MAC line holds eight 8-byte MACs).
func macNodeAddr(line uint64) uint64 {
	return macRegion | (line/Arity)*LineSize
}

// ctrNodeAddr returns the address of the counter node at the given level of
// the tree: level 0 covers 8 data lines, level 1 covers 64, and so on.
// The level is folded into the set-index bits so that the few upper-level
// nodes do not all collide in set 0 of the node cache.
func ctrNodeAddr(level int, line uint64) uint64 {
	idx := line
	for l := 0; l <= level; l++ {
		idx /= Arity
	}
	return ctrRegion | uint64(level)<<levelBits | (idx+uint64(level))*LineSize
}

// walkLevels is how many counter levels an access touches before the walk
// terminates in the always-on-die root region.  Seven levels cover the
// whole 93 MB EPC; in practice upper levels hit the node cache.
const walkLevels = 4

// SetTelemetry attaches tree-walk hit/miss counters from the registry.
// A nil registry detaches (handles become no-op nils).
func (m *CostModel) SetTelemetry(reg *telemetry.Registry) {
	m.nodeHits = reg.Counter(telemetry.MetricMEENodeHits)
	m.nodeMisses = reg.Counter(telemetry.MetricMEENodeMiss)
}

// touchMetadata walks the tree for one data line through the node cache and
// returns the number of node fetches that missed.
func (m *CostModel) touchMetadata(line uint64) (misses int) {
	if hit, _ := m.nodeCache.Access(macNodeAddr(line), false); !hit {
		misses++
	}
	for level := 0; level < walkLevels; level++ {
		if hit, _ := m.nodeCache.Access(ctrNodeAddr(level, line), false); !hit {
			misses++
		}
	}
	if m.nodeHits != nil {
		m.nodeHits.Add(uint64(walkLevels + 1 - misses))
		m.nodeMisses.Add(uint64(misses))
	}
	return misses
}

// rowPressure models DRAM row-buffer conflicts between the data stream and
// the metadata streams: the more rows a single sweep touches, the more each
// metadata fetch costs.  Calibrated so the 16 KB and 32 KB points of
// Figure 6 land at roughly +94% and +102%.
func rowPressure(footprintLines int) float64 {
	f := 1 + float64(footprintLines)/1024
	if f > 1.5 {
		f = 1.5
	}
	return f
}

// StreamLoadExtra returns the extra cycles for one line of a consecutive
// (prefetched) read sweep over encrypted memory.  footprintLines is the
// total sweep size, used for the row-pressure term.
func (m *CostModel) StreamLoadExtra(line uint64, footprintLines int) float64 {
	misses := m.touchMetadata(line)
	return m.streamLoadPerLine + float64(misses)*m.nodeFetchCost*rowPressure(footprintLines)
}

// StreamStoreExtra returns the extra cycles for one line of a consecutive
// write sweep.  Counter updates are write-combined, so metadata misses are
// amortised; this is why Figure 7 shows only ~6% write overhead.
func (m *CostModel) StreamStoreExtra(line uint64, footprintLines int) float64 {
	misses := m.touchMetadata(line)
	return m.streamStorePerLine + float64(misses)*m.nodeFetchCost*m.storeFetchScale
}

// DemandLoadExtra returns the extra cycles for one isolated encrypted-line
// load miss (Table 1 row 9: 400 vs 308 cycles when the tree is cached).
func (m *CostModel) DemandLoadExtra(line uint64) float64 {
	misses := m.touchMetadata(line)
	return m.demandLoadLatency + float64(misses)*m.nodeFetchCost
}

// DemandStoreExtra returns the extra cycles for one isolated encrypted-line
// store miss (Table 1 row 10: 575 vs 481 cycles).
func (m *CostModel) DemandStoreExtra(line uint64) float64 {
	misses := m.touchMetadata(line)
	return m.demandStoreLatency + float64(misses)*m.nodeFetchCost*m.storeFetchScale
}

// FlushMetadata evicts all tree nodes from the MEE cache (used by tests and
// by the cold-cache experiments, where flushing the LLC also disturbs the
// metadata working set).
func (m *CostModel) FlushMetadata() { m.nodeCache.FlushAll() }

// NodeCacheStats exposes the metadata cache's hit statistics.
func (m *CostModel) NodeCacheStats() (accesses, misses uint64) {
	return m.nodeCache.Stats()
}
