// Package epcstat is the EPC pressure observatory: it consumes the
// paging events of an epc.Manager (owner-tagged faults, evictions with
// culprit→victim attribution, hash-sampled touches) and turns them into
// per-owner residency/fault/interference accounting and an online
// working-set-size estimate — the memory-side analogue of the call-side
// flight recorder.
//
// The paper's libquantum cliff (Figure 8, Section 3.4) is the motivating
// failure mode: a working set that grows just past the 93 MB EPC turns
// every access into a ~9,000-cycle fault and throughput collapses.  The
// manager's three global counts (Manager.Stats) can tell you the storm is
// happening; this package tells you it is *coming* (summed WSS
// approaching capacity), *who* is causing it, and *who* is paying for it.
//
// Concurrency: the live accounting state is mutated only inside the
// Observe* callbacks, which the manager serialises with its paging (its
// lock, or its one owning goroutine), so the hot path needs no additional
// synchronisation.  Flush — also called under the manager's lock — builds
// an immutable Snapshot and publishes it under the collector's mutex;
// Snapshot() readers take only the collector's mutex.  Lock order is
// always manager → collector, never the reverse.
package epcstat

import (
	"sort"
	"sync"

	"hotcalls/internal/epc"
)

// The observatory's budgets.  The WSS estimator tracks at most
// maxSamples pages across all owners: when the set is full, inserting a
// page first prunes entries outside the window and then evicts the
// stalest.  Attach sizes the touch sampling to fit it — each page is
// sampled with probability 2^-bits by a per-page hash (so the sampled
// set is stable across sweeps and per-page recency is exact for sampled
// pages), with bits the smallest for which 4×capacityPages>>bits ≤
// maxSamples.
const maxSamples = 4096

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

// ownerState is the live per-owner accounting, mutated only inside the
// manager's serialised callbacks.
type ownerState struct {
	resident       int64
	faults         uint64
	evictions      uint64 // this owner's pages evicted (victim side)
	evictionsCause uint64 // evictions this owner's faults forced (culprit side)
	sampledTouches uint64
	samples        map[uint64]uint64 // page → touch-clock time of last sampled touch
}

// Collector implements epc.Observer and accumulates the observatory
// state.  Create with New, wire with Attach, read with Snapshot.
type Collector struct {
	opts          Options
	mgr           *epc.Manager
	capacityPages int
	sampleBits    uint
	window        uint64

	// Live state: guarded by the attached manager's paging (all writes
	// happen inside Observe*/Flush, which the manager serialises).  lastOwner/lastState memoise the last owner lookup:
	// paging traffic is bursty per owner, so the common callback skips
	// the owners map entirely.
	lastOwner    epc.OwnerID
	lastState    *ownerState
	owners       map[epc.OwnerID]*ownerState
	interference map[uint64]uint64 // culprit<<32|victim → evictions
	faults       uint64
	evictions    uint64
	sampled      uint64
	sampleCount  int

	// Published state: guarded by mu.
	mu        sync.Mutex
	published *Snapshot

	// meeStats, when wired (mem.System.SetEPCStat), stamps snapshots
	// with the MEE node-cache counters so one snapshot shows the whole
	// encrypted-memory picture.  Set before concurrent use.
	meeStats func() (accesses, misses uint64)
}

// New returns a collector with defaults applied.  Attach it to a manager
// before the first touch so residency accounting starts from empty.
func New(opts Options) *Collector {
	return &Collector{
		opts:         opts,
		owners:       make(map[epc.OwnerID]*ownerState),
		interference: make(map[uint64]uint64),
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

func (c *Collector) ownerLocked(id epc.OwnerID) *ownerState {
	if c.lastState != nil && c.lastOwner == id {
		return c.lastState
	}
	os := c.owners[id]
	if os == nil {
		os = &ownerState{samples: make(map[uint64]uint64)}
		c.owners[id] = os
	}
	c.lastOwner, c.lastState = id, os
	return os
}

// ObserveTouch records a hash-sampled touch (epc.Observer), serialised by
// the manager.
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

// ObserveFault records a fault (epc.Observer; exact, every fault),
// serialised by the manager.  Must not allocate in steady state.
func (c *Collector) ObserveFault(owner epc.OwnerID, page uint64) {
	os := c.ownerLocked(owner)
	os.faults++
	os.resident++
	c.faults++
}

// ObserveEvict records an eviction with attribution (epc.Observer;
// exact), serialised by the manager.  Must not allocate in steady state.
func (c *Collector) ObserveEvict(culprit, victim epc.OwnerID, page uint64) {
	vs := c.ownerLocked(victim)
	vs.evictions++
	vs.resident--
	c.ownerLocked(culprit).evictionsCause++
	c.evictions++
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
		Now:            now,
		CapacityPages:  c.capacityPages,
		Faults:         c.faults,
		Evictions:      c.evictions,
		SampledTouches: c.sampled,
		SampleBits:     c.sampleBits,
		WindowTouches:  c.window,
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
			SampledTouches:  os.sampledTouches,
			WSSPages:        wss,
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
// returns a copy of the published snapshot.
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
	s.Interference = append([]Cell(nil), c.published.Interference...)
	if c.meeStats != nil {
		s.MEENodeAccesses, s.MEENodeMisses = c.meeStats()
	}
	return &s
}

// OwnerStats is one owner's slice of a Snapshot.
type OwnerStats struct {
	Owner           epc.OwnerID `json:"owner"`
	ResidentPages   int64       `json:"resident_pages"`
	Faults          uint64      `json:"faults"`
	Evictions       uint64      `json:"evictions"` // this owner's pages evicted
	EvictionsCaused uint64      `json:"evictions_caused"`
	SampledTouches  uint64      `json:"sampled_touches"`
	WSSPages        uint64      `json:"wss_pages"`
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
	Now            uint64 `json:"now"` // manager touch clock
	CapacityPages  int    `json:"capacity_pages"`
	ResidentPages  int64  `json:"resident_pages"`
	Faults         uint64 `json:"faults"`
	Evictions      uint64 `json:"evictions"`
	SampledTouches uint64 `json:"sampled_touches"`
	SampleBits     uint   `json:"sample_bits"`
	WindowTouches  uint64 `json:"window_touches"`
	WSSPages       uint64 `json:"wss_pages"` // summed per-owner estimates
	// MEE node-cache counters, stamped when SetMEEStats wired a source:
	// integrity-tree pressure rises with paging (every ELDU/EWB walks
	// the tree), so they belong in the same pressure picture.
	MEENodeAccesses uint64       `json:"mee_node_accesses,omitempty"`
	MEENodeMisses   uint64       `json:"mee_node_misses,omitempty"`
	Owners          []OwnerStats `json:"owners,omitempty"`
	Interference    []Cell       `json:"interference,omitempty"`
}
