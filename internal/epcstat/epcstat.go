// Package epcstat is the EPC pressure observatory: it consumes the
// paging events of an epc.Manager (owner-tagged faults, evictions with
// culprit→victim attribution, hash-sampled touches) and turns them into
// per-owner residency/fault/interference accounting, an online
// working-set-size estimate, and a fault-rate heatmap over address-space
// buckets — the memory-side analogue of the call-side flight recorder.
//
// The paper's libquantum cliff (Figure 8, Section 3.4) is the motivating
// failure mode: a working set that grows just past the 93 MB EPC turns
// every access into a ~9,000-cycle fault and throughput collapses.  The
// three global counters the manager always exported can tell you the
// storm is happening; this package tells you it is *coming* (summed WSS
// approaching capacity), *who* is causing it, and *who* is paying for it.
//
// Concurrency follows the flight-recorder publish pattern: the live
// accounting state is mutated only inside the Observe* callbacks, which
// the manager invokes under its own paging lock, so the hot path needs no
// additional synchronisation.  Flush — also called under the manager's
// lock — builds an immutable Snapshot and publishes it under the
// collector's mutex; Snapshot() readers take only the collector's mutex.
// Lock order is always manager → collector, never the reverse.
package epcstat

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hotcalls/internal/epc"
)

// SnapshotSchema identifies the JSON shape served at /debug/epc and
// embedded in incident bundles.
const SnapshotSchema = "epcstat/v1"

// The observatory's budgets.  The WSS estimator tracks at most
// maxSamples pages across all owners: when the set is full, inserting a
// page first prunes entries outside the window and then evicts the
// stalest.  Attach sizes the touch sampling to fit it — each page is
// sampled with probability 2^-bits by a per-page hash (so the sampled
// set is stable across sweeps and per-page recency is exact for sampled
// pages), with bits the smallest for which 4×capacityPages>>bits ≤
// maxSamples.  The fault heatmap has heatBuckets buckets spanning twice
// the EPC capacity; pages beyond the span wrap around (bucket =
// page/pagesPerBucket mod heatBuckets), so a heatmap is a density
// profile, not an unbounded address map.
const (
	maxSamples  = 4096
	heatBuckets = 64
)

// Options configures a Collector.  The zero value is usable: every field
// has a documented default applied at New/Attach time.
type Options struct {
	// WindowTouches is the working-set window θ in touch-clock ticks: a
	// sampled page counts toward the WSS if it was touched within the
	// last WindowTouches touches (Denning's W(t, θ)).  Default
	// 4 × capacityPages, a full sweep of an EPC-sized working set with
	// page-granularity touches.  Callers driving line-granularity touch
	// streams (internal/mem touches per 64-byte line) should scale
	// accordingly.
	WindowTouches uint64
}

// ownerState is the live per-owner accounting, mutated only under the
// manager's paging lock.
type ownerState struct {
	resident       int64
	faults         uint64
	evictions      uint64 // this owner's pages evicted (victim side)
	evictionsCause uint64 // evictions this owner's faults forced (culprit side)
	writebacks     uint64 // dirty subset of evictions (victim side)
	sampledTouches uint64
	samples        map[uint64]uint64 // page → touch-clock time of last sampled touch
	heat           []uint64          // faults per address bucket
}

// Collector implements epc.Observer and accumulates the observatory
// state.  Create with New, wire with Attach, read with Snapshot.
type Collector struct {
	opts          Options
	mgr           *epc.Manager
	capacityPages int
	sampleBits    uint
	window        uint64
	pagesPerBkt   uint64

	// Live state: guarded by the attached manager's paging lock (all
	// writes happen inside Observe*/Flush, which the manager calls with
	// its lock held).  lastOwner/lastState memoise the last owner lookup:
	// paging traffic is bursty per owner, so the common callback skips
	// the owners map entirely.
	lastOwner    epc.OwnerID
	lastState    *ownerState
	owners       map[epc.OwnerID]*ownerState
	interference map[uint64]uint64 // culprit<<32|victim → evictions
	heat         []uint64
	faults       uint64
	evictions    uint64
	writebacks   uint64
	sampled      uint64
	sampleCount  int

	// Published state: guarded by mu.
	mu        sync.Mutex
	published *Snapshot
	labels    map[epc.OwnerID]string

	// meeStats, when wired (mem.System.SetEPCStat), stamps snapshots
	// with the MEE node-cache counters so one /debug/epc fetch shows the
	// whole encrypted-memory picture.  Set before concurrent use.
	meeStats func() (accesses, misses uint64)
}

// New returns a collector with defaults applied.  Attach it to a manager
// before the first touch so residency accounting starts from empty.
func New(opts Options) *Collector {
	return &Collector{
		opts:         opts,
		owners:       make(map[epc.OwnerID]*ownerState),
		interference: make(map[uint64]uint64),
		heat:         make([]uint64, heatBuckets),
		labels:       make(map[epc.OwnerID]string),
	}
}

// Attach resolves capacity-dependent defaults and registers the collector
// as the manager's observer.  Call once, before concurrent use.
func (c *Collector) Attach(m *epc.Manager) {
	c.mgr = m
	c.capacityPages = m.CapacityPages()
	c.window = c.opts.WindowTouches
	if c.window == 0 {
		c.window = 4 * uint64(c.capacityPages)
	}
	c.pagesPerBkt = max(uint64(2*c.capacityPages)/heatBuckets, 1)
	// The steady-state sampled population is workingSet>>bits; size for
	// a working set of 4× capacity so even oversubscribed workloads fit
	// the sample budget.
	population := 4 * c.capacityPages
	c.sampleBits = 0
	for population>>c.sampleBits > maxSamples {
		c.sampleBits++
	}
	m.SetObserver(c, c.sampleBits)
}

// SampleBits returns the resolved touch-sampling exponent (rate is
// 1-in-2^bits).
func (c *Collector) SampleBits() uint { return c.sampleBits }

// SetMEEStats wires a source for the MEE node-cache counters reported in
// snapshots (typically mem.System's cost model).  Call before concurrent
// use.
func (c *Collector) SetMEEStats(f func() (accesses, misses uint64)) { c.meeStats = f }

// SetLabel attaches a human-readable label (enclave name, tenant, conn)
// to an owner ID for snapshots and text rendering.
func (c *Collector) SetLabel(owner epc.OwnerID, label string) {
	c.mu.Lock()
	c.labels[owner] = label
	c.mu.Unlock()
}

func (c *Collector) ownerLocked(id epc.OwnerID) *ownerState {
	if c.lastState != nil && c.lastOwner == id {
		return c.lastState
	}
	os := c.owners[id]
	if os == nil {
		os = &ownerState{
			samples: make(map[uint64]uint64),
			heat:    make([]uint64, heatBuckets),
		}
		c.owners[id] = os
	}
	c.lastOwner, c.lastState = id, os
	return os
}

func (c *Collector) bucket(page uint64) int {
	return int((page / c.pagesPerBkt) % uint64(len(c.heat)))
}

// ObserveTouch records a hash-sampled touch (epc.Observer).  Runs under
// the manager's lock.
func (c *Collector) ObserveTouch(owner epc.OwnerID, page uint64, now uint64) {
	os := c.ownerLocked(owner)
	os.sampledTouches++
	c.sampled++
	before := len(os.samples)
	os.samples[page] = now
	if len(os.samples) != before {
		c.sampleCount++
		if c.sampleCount > maxSamples {
			c.evictSampleLocked(now)
		}
	}
}

// evictSampleLocked frees room in the sample set: stale entries (outside
// the WSS window, which can no longer contribute to any estimate) are
// pruned; if none are stale the single oldest entry goes.  O(samples),
// but runs only when the set is full and inserting — the sampling rate
// Attach picks keeps the steady-state population within the budget, so
// this is a rare overflow valve, not a hot path.
func (c *Collector) evictSampleLocked(now uint64) {
	var oldestOwner *ownerState
	var oldestPage, oldestAt uint64
	first := true
	pruned := 0
	for _, os := range c.owners {
		for page, at := range os.samples {
			if now-at > c.window {
				delete(os.samples, page)
				pruned++
				continue
			}
			if first || at < oldestAt {
				first, oldestOwner, oldestPage, oldestAt = false, os, page, at
			}
		}
	}
	if pruned == 0 && oldestOwner != nil {
		delete(oldestOwner.samples, oldestPage)
		pruned = 1
	}
	c.sampleCount -= pruned
}

// ObserveFault records a fault (epc.Observer; exact, every fault).  Runs
// under the manager's lock and must not allocate in steady state.
func (c *Collector) ObserveFault(owner epc.OwnerID, page uint64) {
	os := c.ownerLocked(owner)
	os.faults++
	os.resident++
	c.faults++
	b := c.bucket(page)
	c.heat[b]++
	os.heat[b]++
}

// ObserveEvict records an eviction with attribution (epc.Observer;
// exact).  Runs under the manager's lock and must not allocate in steady
// state.
func (c *Collector) ObserveEvict(culprit, victim epc.OwnerID, page uint64, dirty bool) {
	vs := c.ownerLocked(victim)
	vs.evictions++
	vs.resident--
	c.ownerLocked(culprit).evictionsCause++
	c.evictions++
	if dirty {
		vs.writebacks++
		c.writebacks++
	}
	c.interference[uint64(culprit)<<32|uint64(victim)]++
}

// Flush builds and publishes a snapshot (epc.Observer).  The manager
// calls it under its paging lock from FlushObserver; the collector mutex
// is taken strictly after (manager → collector lock order).
func (c *Collector) Flush(now uint64) {
	s := c.buildSnapshotLocked(now)
	c.mu.Lock()
	c.published = s
	c.mu.Unlock()
}

func (c *Collector) buildSnapshotLocked(now uint64) *Snapshot {
	s := &Snapshot{
		Schema:         SnapshotSchema,
		Now:            now,
		CapacityPages:  c.capacityPages,
		Faults:         c.faults,
		Evictions:      c.evictions,
		Writebacks:     c.writebacks,
		SampledTouches: c.sampled,
		SampleBits:     c.sampleBits,
		WindowTouches:  c.window,
		PagesPerBucket: c.pagesPerBkt,
		Heat:           append([]uint64(nil), c.heat...),
	}
	for id, os := range c.owners {
		// Prune samples that have aged out of the window: they can no
		// longer contribute to any WSS estimate and pruning here keeps
		// the sample maps from pinning a long-dead working set.
		var wss uint64
		for page, at := range os.samples {
			if now-at > c.window {
				delete(os.samples, page)
				c.sampleCount--
				continue
			}
			wss++
		}
		wss <<= c.sampleBits
		s.ResidentPages += os.resident
		s.WSSPages += wss
		s.Owners = append(s.Owners, OwnerStats{
			Owner:           id,
			ResidentPages:   os.resident,
			Faults:          os.faults,
			Evictions:       os.evictions,
			EvictionsCaused: os.evictionsCause,
			Writebacks:      os.writebacks,
			SampledTouches:  os.sampledTouches,
			WSSPages:        wss,
			Heat:            append([]uint64(nil), os.heat...),
		})
	}
	sort.Slice(s.Owners, func(i, j int) bool { return s.Owners[i].Owner < s.Owners[j].Owner })
	for key, n := range c.interference {
		s.Interference = append(s.Interference, Cell{
			Culprit:   epc.OwnerID(key >> 32),
			Victim:    epc.OwnerID(key & 0xFFFFFFFF),
			Evictions: n,
		})
	}
	sort.Slice(s.Interference, func(i, j int) bool {
		a, b := s.Interference[i], s.Interference[j]
		if a.Evictions != b.Evictions {
			return a.Evictions > b.Evictions
		}
		if a.Culprit != b.Culprit {
			return a.Culprit < b.Culprit
		}
		return a.Victim < b.Victim
	})
	return s
}

// Snapshot flushes the live state through the attached manager and
// returns a copy of the published snapshot with owner labels applied.
// Safe for concurrent use; returns nil on a nil collector or before the
// first flush opportunity.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	if c.mgr != nil {
		c.mgr.FlushObserver()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.published == nil {
		return nil
	}
	s := *c.published
	s.Owners = append([]OwnerStats(nil), c.published.Owners...)
	for i := range s.Owners {
		s.Owners[i].Label = c.labels[s.Owners[i].Owner]
	}
	s.Interference = append([]Cell(nil), c.published.Interference...)
	if c.meeStats != nil {
		s.MEENodeAccesses, s.MEENodeMisses = c.meeStats()
	}
	return &s
}

// OwnerStats is one owner's slice of a Snapshot.
type OwnerStats struct {
	Owner           epc.OwnerID `json:"owner"`
	Label           string      `json:"label,omitempty"`
	ResidentPages   int64       `json:"resident_pages"`
	Faults          uint64      `json:"faults"`
	Evictions       uint64      `json:"evictions"` // this owner's pages evicted
	EvictionsCaused uint64      `json:"evictions_caused"`
	Writebacks      uint64      `json:"writebacks"`
	SampledTouches  uint64      `json:"sampled_touches"`
	WSSPages        uint64      `json:"wss_pages"`
	Heat            []uint64    `json:"heat,omitempty"`
}

// Cell is one culprit→victim edge of the interference matrix: how many
// of victim's pages culprit's faults evicted.  Cells sum exactly to the
// snapshot's total Evictions (self-eviction cells included).
type Cell struct {
	Culprit   epc.OwnerID `json:"culprit"`
	Victim    epc.OwnerID `json:"victim"`
	Evictions uint64      `json:"evictions"`
}

// Snapshot is a consistent point-in-time view of the observatory,
// published under the manager's paging lock so counts never tear.
type Snapshot struct {
	Schema         string `json:"schema"`
	Now            uint64 `json:"now"` // manager touch clock
	CapacityPages  int    `json:"capacity_pages"`
	ResidentPages  int64  `json:"resident_pages"`
	Faults         uint64 `json:"faults"`
	Evictions      uint64 `json:"evictions"`
	Writebacks     uint64 `json:"writebacks"`
	SampledTouches uint64 `json:"sampled_touches"`
	SampleBits     uint   `json:"sample_bits"`
	WindowTouches  uint64 `json:"window_touches"`
	WSSPages       uint64 `json:"wss_pages"` // summed per-owner estimates
	PagesPerBucket uint64 `json:"pages_per_bucket"`
	// MEE node-cache counters, stamped when SetMEEStats wired a source:
	// integrity-tree pressure rises with paging (every ELDU/EWB walks
	// the tree), so they belong in the same pressure picture.
	MEENodeAccesses uint64       `json:"mee_node_accesses,omitempty"`
	MEENodeMisses   uint64       `json:"mee_node_misses,omitempty"`
	Heat            []uint64     `json:"heat"`
	Owners          []OwnerStats `json:"owners,omitempty"`
	Interference    []Cell       `json:"interference,omitempty"`
}

// OwnerDelta is one owner's share of an interval Delta.
type OwnerDelta struct {
	Owner           epc.OwnerID `json:"owner"`
	Label           string      `json:"label,omitempty"`
	ResidentPages   int64       `json:"resident_pages"` // at interval end
	Faults          uint64      `json:"faults"`
	Evictions       uint64      `json:"evictions"`
	EvictionsCaused uint64      `json:"evictions_caused"`
	WSSPages        uint64      `json:"wss_pages"` // at interval end
}

// Delta is the difference between two snapshots of the same collector —
// the interval view the monitor rules evaluate.
type Delta struct {
	Touches    uint64 `json:"touches"`
	Faults     uint64 `json:"faults"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
	// ThrashScore is the composite pressure score: simulated paging
	// cycles (faults × FaultCost + evictions × EWBCost) per touch over
	// the interval.  ~0 when resident; ≈ FaultCost+EWBCost (~9,000)
	// when every touch faults and evicts — the libquantum cliff.
	ThrashScore  float64      `json:"thrash_score"`
	Owners       []OwnerDelta `json:"owners,omitempty"`
	Interference []Cell       `json:"interference,omitempty"`
}

// Sub returns the interval delta s − prev.  A nil prev yields the
// cumulative view.  Counters are clamped at zero so a collector restart
// never produces wraparound garbage.
func (s *Snapshot) Sub(prev *Snapshot) Delta {
	if s == nil {
		return Delta{}
	}
	var d Delta
	prevOwner := map[epc.OwnerID]OwnerStats{}
	prevCell := map[uint64]uint64{}
	var prevNow, prevFaults, prevEvicts, prevWB uint64
	if prev != nil {
		prevNow, prevFaults, prevEvicts, prevWB = prev.Now, prev.Faults, prev.Evictions, prev.Writebacks
		for _, o := range prev.Owners {
			prevOwner[o.Owner] = o
		}
		for _, cell := range prev.Interference {
			prevCell[uint64(cell.Culprit)<<32|uint64(cell.Victim)] = cell.Evictions
		}
	}
	d.Touches = clampSub(s.Now, prevNow)
	d.Faults = clampSub(s.Faults, prevFaults)
	d.Evictions = clampSub(s.Evictions, prevEvicts)
	d.Writebacks = clampSub(s.Writebacks, prevWB)
	if d.Touches > 0 {
		d.ThrashScore = (float64(d.Faults)*epc.FaultCost + float64(d.Evictions)*epc.EWBCost) / float64(d.Touches)
	}
	for _, o := range s.Owners {
		p := prevOwner[o.Owner]
		od := OwnerDelta{
			Owner:           o.Owner,
			Label:           o.Label,
			ResidentPages:   o.ResidentPages,
			Faults:          clampSub(o.Faults, p.Faults),
			Evictions:       clampSub(o.Evictions, p.Evictions),
			EvictionsCaused: clampSub(o.EvictionsCaused, p.EvictionsCaused),
			WSSPages:        o.WSSPages,
		}
		if od.Faults != 0 || od.Evictions != 0 || od.EvictionsCaused != 0 || od.ResidentPages != 0 || od.WSSPages != 0 {
			d.Owners = append(d.Owners, od)
		}
	}
	for _, cell := range s.Interference {
		n := clampSub(cell.Evictions, prevCell[uint64(cell.Culprit)<<32|uint64(cell.Victim)])
		if n != 0 {
			d.Interference = append(d.Interference, Cell{Culprit: cell.Culprit, Victim: cell.Victim, Evictions: n})
		}
	}
	return d
}

func clampSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func ownerName(id epc.OwnerID, label string) string {
	if label != "" {
		return fmt.Sprintf("%s(#%d)", label, id)
	}
	return fmt.Sprintf("#%d", id)
}

// RenderText renders the snapshot as an aligned text table — the /debug/
// epc?format=text and incident-bundle view.
func (s *Snapshot) RenderText() string {
	var b strings.Builder
	if s == nil {
		b.WriteString("epc: no snapshot yet\n")
		return b.String()
	}
	occ := 0.0
	if s.CapacityPages > 0 {
		occ = float64(s.ResidentPages) / float64(s.CapacityPages)
	}
	fmt.Fprintf(&b, "epc: %d/%d pages resident (%.0f%%)  wss≈%d pages  faults=%d evictions=%d writebacks=%d\n",
		s.ResidentPages, s.CapacityPages, occ*100, s.WSSPages, s.Faults, s.Evictions, s.Writebacks)
	fmt.Fprintf(&b, "sampling: 1-in-%d touches by page hash (%d sampled), wss window %d touches\n",
		uint64(1)<<s.SampleBits, s.SampledTouches, s.WindowTouches)
	if len(s.Owners) > 0 {
		fmt.Fprintf(&b, "\n%-16s %9s %9s %9s %9s %9s %9s\n",
			"owner", "resident", "wss", "faults", "evicted", "caused", "writeback")
		for _, o := range s.Owners {
			fmt.Fprintf(&b, "%-16s %9d %9d %9d %9d %9d %9d\n",
				ownerName(o.Owner, o.Label), o.ResidentPages, o.WSSPages,
				o.Faults, o.Evictions, o.EvictionsCaused, o.Writebacks)
		}
	}
	if len(s.Interference) > 0 {
		b.WriteString("\ninterference (culprit→victim evictions):\n")
		for _, cell := range s.Interference {
			fmt.Fprintf(&b, "  %-12s → %-12s %9d\n",
				fmt.Sprintf("#%d", cell.Culprit), fmt.Sprintf("#%d", cell.Victim), cell.Evictions)
		}
	}
	return b.String()
}
