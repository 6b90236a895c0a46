package epc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hotcalls/internal/sim"
)

// refManager is the paging half of the manager as it stood before the
// residency memo — one map lookup of a heap-allocated page state per
// touch — copied as the oracle: every simulated paging statistic in the
// repo was produced by its fault/evict sequence.  victims are the pages
// the last touch evicted, in order; last is the recency of the pages the
// working-set estimate samples.
type refManager struct {
	capacity int
	resident map[uint64]*refPage
	clock    []uint64
	hand     int

	touches, faults, evictions uint64
	victims                    []uint64

	sampleShift uint
	last        map[uint64]uint64
}

type refPage struct{ referenced bool }

func newRefManager(pages int, sampleBits uint) *refManager {
	return &refManager{
		capacity: pages, resident: make(map[uint64]*refPage),
		sampleShift: 64 - sampleBits, last: make(map[uint64]uint64),
	}
}

func (m *refManager) touchRun(page uint64, n int) (fault bool, evictions int) {
	fault, evictions = m.touch(page)
	for i := 1; i < n; i++ {
		m.count(page)
	}
	return fault, evictions
}

func (m *refManager) count(page uint64) {
	m.touches++
	if (page*hashMul)>>m.sampleShift == 0 {
		m.last[page] = m.touches
	}
}

func (m *refManager) touch(page uint64) (fault bool, evictions int) {
	m.victims = m.victims[:0]
	m.count(page)
	if st, ok := m.resident[page]; ok {
		st.referenced = true
		return false, 0
	}
	m.faults++
	for len(m.resident) >= m.capacity {
		m.evictOne()
		evictions++
	}
	m.resident[page] = &refPage{referenced: true}
	m.clock = append(m.clock, page)
	return true, evictions
}

func (m *refManager) evictOne() {
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
		delete(m.resident, page)
		m.victims = append(m.victims, page)
		return
	}
}

// handOrder returns the resident pages in the order the clock hand visits
// them next.
func (m *refManager) handOrder() []uint64 {
	order := make([]uint64, 0, len(m.clock))
	for i := range m.clock {
		order = append(order, m.clock[(m.hand+i)%len(m.clock)])
	}
	return order
}

// handOrder is the manager's: its live slots from the hand on, so two
// managers that agree visit the same victims in the same order.
func handOrder(m *Manager) []uint64 {
	var order []uint64
	for i := range m.clock {
		if slot := m.clock[(m.hand+i)%len(m.clock)]; slot != 0 {
			order = append(order, slot-1)
		}
	}
	return order
}

// sameClock fails the test unless the manager's clock visits the
// reference's resident pages in the same order with the same reference
// bits.
func sameClock(t *testing.T, step int, m *Manager, ref *refManager) {
	t.Helper()
	got, want := handOrder(m), ref.handOrder()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: clock from the hand %v, reference %v", step, got, want)
	}
	for _, page := range want {
		if m.resident[page] != ref.resident[page].referenced {
			t.Fatalf("step %d: page %d referenced %v, reference %v", step, page, m.resident[page], ref.resident[page].referenced)
		}
	}
}

// TestMemoisedManagerMatchesReference replays seeded traces — touch runs
// over a hot set the memo keeps answering for and, cyclically and at
// random, over a page range wider than the EPC, with single touches in
// between — on the manager and on the map-only reference, at capacities
// small enough to evict constantly, and requires the same outcome and
// cycle charge of every operation, and the same counters, resident set
// and sampled recency after each.  Residency is checked by the step's
// victims: both sets start empty and keep one size, so when the touched
// page is resident and none of the reference's victims is, they are the
// same set.  Every 1024 steps, and at the end, the clock order from the
// hand and every reference bit must match too.  The window never expires
// and the sampled pages stay within the budget, so the estimate's samples
// are the reference's exactly; a step changes only the touched page's
// entry.
func TestMemoisedManagerMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		pages, steps int
		sampleBits   uint
		seeds        []uint64
	}{
		{16, 40_000, 0, []uint64{1, 7}},
		{64, 40_000, 2, []uint64{1, 7}},
		{DefaultCapacityBytes / PageSize, 120_000, 4, []uint64{1, 7, 42, 123}}, // 23 808 pages
	} {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%dpages/seed%d", tc.pages, seed), func(t *testing.T) {
				m, ref := newTestManager(tc.pages), newRefManager(tc.pages, tc.sampleBits)
				m.wss = newWSS(math.MaxUint64, tc.sampleBits)
				r := sim.NewRNG(seed)
				// Half again as wide as the EPC: the cyclic sweep keeps
				// evicting at every seed, several times the steps/100
				// floor checked below.
				span := tc.pages + tc.pages/2 + 8
				sweep := 0
				for i := 0; i < tc.steps; i++ {
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
						fault, evictions := m.Touch(page, n)
						refFault, refEvictions := ref.touchRun(page, n)
						if fault != refFault || evictions != refEvictions {
							t.Fatalf("step %d: Touch(p%d, %d) = (%v, %d), reference (%v, %d)", i, page, n, fault, evictions, refFault, refEvictions)
						}
					} else {
						fault, evictions := m.Touch(page, 1)
						refFault, refEvictions := ref.touch(page)
						if fault != refFault || FaultCycles(evictions) != FaultCycles(refEvictions) {
							t.Fatalf("step %d: Touch(p%d, 1) = (%v, %d), reference (%v, %d)", i, page, fault, evictions, refFault, refEvictions)
						}
					}
					touches, faults, evictions := m.Stats()
					if touches != ref.touches || faults != ref.faults || evictions != ref.evictions || m.ResidentPages() != len(ref.resident) {
						t.Fatalf("step %d: (touches, faults, evictions, resident) = (%d, %d, %d, %d), reference (%d, %d, %d, %d)", i,
							touches, faults, evictions, m.ResidentPages(), ref.touches, ref.faults, ref.evictions, len(ref.resident))
					}
					if _, ok := m.resident[page]; !ok {
						t.Fatalf("step %d: touched page %d is not resident", i, page)
					}
					for _, victim := range ref.victims {
						if _, ok := m.resident[victim]; ok {
							t.Fatalf("step %d: reference evicted page %d (of %v), the manager kept it", i, victim, ref.victims)
						}
					}
					if i%1024 == 0 || i == tc.steps-1 {
						sameClock(t, i, m, ref)
					}
					if len(m.wss.samples) != len(ref.last) || m.wss.samples[page] != ref.last[page] {
						t.Fatalf("step %d: %d samples, page %d last at %d; reference %d, %d", i,
							len(m.wss.samples), page, m.wss.samples[page], len(ref.last), ref.last[page])
					}
				}
				if ref.evictions < uint64(tc.steps/100) || len(ref.last) == 0 {
					t.Fatalf("trace too tame: %d evictions, %d sampled pages", ref.evictions, len(ref.last))
				}
				t.Logf("%d evictions, %d sampled pages", ref.evictions, len(ref.last))
			})
		}
	}
}

// BenchmarkTouch prices the three ways a touch run resolves: answered
// by the residency memo and by the map (256 pages contending for one memo
// entry), both on a memcached-sized resident set, and by a fault that
// evicts from a full 4 MB EPC.  `make bench-sim` runs it.
func BenchmarkTouch(b *testing.B) {
	full := func(pages, capacity int) *Manager {
		m := newTestManager(capacity)
		for p := 0; p < pages; p++ {
			m.Touch(uint64(p), 1)
		}
		b.ResetTimer()
		return m
	}
	b.Run("memo-hit", func(b *testing.B) {
		m := full(16<<10, 32<<10)
		for i := 0; i < b.N; i++ {
			m.Touch(7, 32)
		}
	})
	b.Run("map-hit", func(b *testing.B) {
		m := full(16<<10, 32<<10)
		for i := 0; i < b.N; i++ {
			m.Touch(7+uint64(i%256)*memoSize, 32)
		}
	})
	b.Run("fault", func(b *testing.B) {
		m := full(1024, 1024)
		for i := 0; i < b.N; i++ {
			m.Touch(uint64(i%1025), 32) // 1025 pages in turn through 1024 frames: a fault and an eviction each
		}
	})
}
