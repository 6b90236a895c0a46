package epc

import (
	"fmt"
	"testing"

	"hotcalls/internal/sim"
)

// refManager is the paging half of the manager as it stood before the
// residency memo — one map lookup of a heap-allocated page state per
// touch — copied as the oracle: every simulated paging statistic in the
// repo was produced by its fault/evict sequence.
type refManager struct {
	capacity int
	resident map[uint64]*refPage
	clock    []uint64
	hand     int

	touches, faults, evictions uint64

	obs         Observer
	sampleShift uint
}

type refPage struct {
	owner      OwnerID
	referenced bool
}

func newRefManager(pages int, obs Observer, sampleBits uint) *refManager {
	return &refManager{
		capacity: pages, resident: make(map[uint64]*refPage),
		obs: obs, sampleShift: 64 - sampleBits,
	}
}

func (m *refManager) touchRun(owner OwnerID, page uint64, n int) (fault bool, evictions int) {
	fault, evictions = m.touch(owner, page)
	for i := 1; i < n; i++ {
		m.touches++
		if (page*hashMul)>>m.sampleShift == 0 {
			m.obs.ObserveTouch(owner, page, m.touches)
		}
	}
	return fault, evictions
}

func (m *refManager) touch(owner OwnerID, page uint64) (fault bool, evictions int) {
	m.touches++
	if (page*hashMul)>>m.sampleShift == 0 {
		m.obs.ObserveTouch(owner, page, m.touches)
	}
	if st, ok := m.resident[page]; ok {
		st.referenced = true
		return false, 0
	}
	m.faults++
	m.obs.ObserveFault(owner, page)
	for len(m.resident) >= m.capacity {
		m.evictOne(owner)
		evictions++
	}
	m.resident[page] = &refPage{owner: owner, referenced: true}
	m.clock = append(m.clock, page)
	return true, evictions
}

func (m *refManager) evictOne(culprit OwnerID) {
	for {
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		page := m.clock[m.hand]
		st := m.resident[page]
		if st.referenced {
			st.referenced = false
			m.hand++
			continue
		}
		m.evictions++
		m.clock = append(m.clock[:m.hand], m.clock[m.hand+1:]...)
		m.obs.ObserveEvict(culprit, st.owner, page)
		delete(m.resident, page)
		return
	}
}

// foldObserver folds every callback, with all its arguments and in order,
// into one running hash, so two managers are compared event for event
// without keeping the events.
type foldObserver struct{ sum, events uint64 }

func (o *foldObserver) fold(kind uint64, words ...uint64) {
	o.events++
	o.sum = (o.sum ^ kind) * 1099511628211
	for _, w := range words {
		o.sum = (o.sum ^ w) * 1099511628211
	}
}
func (o *foldObserver) ObserveTouch(owner OwnerID, page, now uint64) {
	o.fold(1, uint64(owner), page, now)
}
func (o *foldObserver) ObserveFault(owner OwnerID, page uint64) { o.fold(2, uint64(owner), page) }
func (o *foldObserver) ObserveEvict(culprit, victim OwnerID, page uint64) {
	o.fold(3, uint64(culprit), uint64(victim), page)
}
func (o *foldObserver) Flush(uint64) {}

// TestMemoisedManagerMatchesReference replays seeded traces — touch runs
// over a hot set the memo keeps answering for and, cyclically and at
// random, over a page range wider than the EPC, with single TouchAs
// accesses in between — on the manager and on the map-only reference, at
// capacities small enough to evict constantly, and requires the same
// outcome and cycle charge of every operation, the same counters and the
// same observer callback sequence after each.
func TestMemoisedManagerMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		pages, steps int
		sampleBits   uint
	}{
		{16, 40_000, 0},
		{64, 40_000, 2},
		{DefaultCapacityBytes / PageSize, 120_000, 4}, // 23 808 pages
	} {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("%dpages/seed%d", tc.pages, seed), func(t *testing.T) {
				m, obs, refObs := newTestManager(tc.pages), &foldObserver{}, &foldObserver{}
				m.SetObserver(obs, tc.sampleBits)
				ref := newRefManager(tc.pages, refObs, tc.sampleBits)
				r := sim.NewRNG(seed)
				span := tc.pages + tc.pages/4 + 8 // wider than the EPC: the cyclic sweep keeps evicting
				sweep := 0
				for i := 0; i < tc.steps; i++ {
					owner := OwnerID(r.Intn(3))
					page := uint64(r.Intn(span))
					if r.Bool(0.5) {
						sweep = (sweep + 1) % span
						page = uint64(sweep)
					}
					if r.Bool(0.6) {
						// The hot set: a dozen pages over eight memo
						// entries, four of which two pages contend for.
						page = uint64(r.Intn(12)) * 24
					}
					if r.Intn(100) < 90 {
						n := 1 + r.Intn(64)
						fault, evictions := m.TouchRunAs(owner, page, n)
						refFault, refEvictions := ref.touchRun(owner, page, n)
						if fault != refFault || evictions != refEvictions {
							t.Fatalf("step %d: TouchRunAs(o%d, p%d, %d) = (%v, %d), reference (%v, %d)", i, owner, page, n, fault, evictions, refFault, refEvictions)
						}
					} else {
						fault, cycles := m.TouchAs(owner, page)
						refFault, refEvictions := ref.touch(owner, page)
						refCycles := 0.0
						if refFault {
							refCycles = FaultCycles(refEvictions)
						}
						if fault != refFault || cycles != refCycles {
							t.Fatalf("step %d: TouchAs(o%d, p%d) = (%v, %v), reference (%v, %v)", i, owner, page, fault, cycles, refFault, refCycles)
						}
					}
					touches, faults, evictions := m.Stats()
					if touches != ref.touches || faults != ref.faults || evictions != ref.evictions || m.ResidentPages() != len(ref.resident) {
						t.Fatalf("step %d: (touches, faults, evictions, resident) = (%d, %d, %d, %d), reference (%d, %d, %d, %d)", i,
							touches, faults, evictions, m.ResidentPages(), ref.touches, ref.faults, ref.evictions, len(ref.resident))
					}
					if *obs != *refObs {
						t.Fatalf("step %d: observer sequences diverge (%d callbacks, reference %d)", i, obs.events, refObs.events)
					}
				}
				if ref.evictions < uint64(tc.steps/100) || obs.events == 0 {
					t.Fatalf("trace too tame: %d evictions, %d callbacks", ref.evictions, obs.events)
				}
			})
		}
	}
}

// BenchmarkTouchRunAs prices the three ways a touch run resolves: answered
// by the residency memo and by the map (256 pages contending for one memo
// entry), both on a memcached-sized resident set, and by a fault that
// evicts from a full 4 MB EPC.  `make bench-sim` runs it.
func BenchmarkTouchRunAs(b *testing.B) {
	full := func(pages, capacity int) *Manager {
		m := newTestManager(capacity)
		for p := 0; p < pages; p++ {
			m.TouchRunAs(0, uint64(p), 1)
		}
		b.ResetTimer()
		return m
	}
	b.Run("memo-hit", func(b *testing.B) {
		m := full(16<<10, 32<<10)
		for i := 0; i < b.N; i++ {
			m.TouchRunAs(0, 7, 32)
		}
	})
	b.Run("map-hit", func(b *testing.B) {
		m := full(16<<10, 32<<10)
		for i := 0; i < b.N; i++ {
			m.TouchRunAs(0, 7+uint64(i%256)*memoSize, 32)
		}
	})
	b.Run("fault", func(b *testing.B) {
		m := full(1024, 1024)
		for i := 0; i < b.N; i++ {
			m.TouchRunAs(0, uint64(i%1025), 32) // 1025 pages in turn through 1024 frames: a fault and an eviction each
		}
	})
}
