// Package epc models the Enclave Page Cache: the encrypted region of
// Processor Reserved Memory that holds all enclave pages.  The testbed's
// EPC is 93 MB; when enclaves need more, the SGX driver swaps pages out
// with EWB and back in with ELDU.  That paging traffic is what makes the
// paper's libquantum run 5.2x slower (its 96 MB working set just exceeds
// the EPC, Section 3.4).
//
// The model is residency and cost only: which pages are resident, which
// one the clock algorithm evicts, and the per-fault cycle costs the memory
// system charges.  No page carries content, so EWB and ELDU are prices,
// not encryption.  Faults and evictions are counted exactly (Stats); an
// optional working-set estimate (TrackWSS, wss.go) follows a hash-sampled
// subset of the touches.
package epc

// PageSize is the SGX page granularity.
const PageSize = 4096

// DefaultCapacityBytes is the usable EPC size of the paper's testbed
// (93 MB; the BIOS reserves 128 MB of PRM, the rest holds metadata).
const DefaultCapacityBytes = 93 << 20

// Paging cost constants, in cycles.  An EPC fault costs a trap into the
// kernel driver and an ELDU (decrypt + verify + install) for the missing
// page; when the EPC is full, each eviction the fault forces adds a full
// EWB (encrypt + MAC + write-out).  Under sustained thrash — the paper's
// libquantum, whose 96 MB working set exceeds the 93 MB EPC — every fault
// pays trap + ELDU + EWB (~9,000 cycles), which reproduces the 5.2x
// slowdown; with headroom a compulsory fault costs only trap + ELDU.
const (
	FaultTrapCost = 1500
	ELDUCost      = 3800
	EWBCost       = 3700
	FaultCost     = FaultTrapCost + ELDUCost // plus EWBCost per eviction
)

// memoSize is the number of direct-mapped residency memo entries.  What a
// request keeps returning to is a few dozen pages — its staging buffers,
// its own request and response buffers — so 64 entries answer 93 % of the
// three simulated servers' touch runs, and 1024 would answer 94 %: the
// rest is bulk data touched once.
const memoSize = 64

// Manager tracks EPC residency for a set of enclave pages and counts its
// paging.  Page numbers are virtual page indices (address/PageSize).  One
// goroutine owns a manager — a mem.System's, which touches and reads it
// between its own accesses — so nothing in it is locked.
type Manager struct {
	capacity int             // pages
	resident map[uint64]bool // page → clock algorithm reference bit
	clock    []uint64        // page+1 of each resident page in install order; 0 = evicted slot
	hand     int
	dead     int // evicted slots in clock, dropped by compact

	// memo[p%memoSize] == p+1 records that page p is resident and its
	// reference bit is set — the state in which a touch changes nothing
	// but the touch clock, so Touch need not consult the map.  The one
	// place a reference bit is cleared (the clock hand in evictOne, which
	// every eviction passes through first) drops the page's entry.
	memo [memoSize]uint64

	faults    uint64
	evictions uint64
	touches   uint64

	wss *wss // the working-set estimate; nil until TrackWSS
}

// NewManager returns an EPC manager with the given capacity in bytes.
func NewManager(capacityBytes int) *Manager {
	if capacityBytes < PageSize {
		panic("epc: capacity below one page")
	}
	return &Manager{
		capacity: capacityBytes / PageSize,
		resident: make(map[uint64]bool),
	}
}

// ResidentPages returns the number of currently resident pages.
func (m *Manager) ResidentPages() int { return len(m.resident) }

// Stats returns cumulative touch, fault, and eviction counts.
func (m *Manager) Stats() (touches, faults, evictions uint64) {
	return m.touches, m.faults, m.evictions
}

// FaultCycles is the paging cost of one fault that forced the given number
// of evictions: trap + ELDU, plus one EWB each.
func FaultCycles(evictions int) uint64 {
	return FaultCost + uint64(evictions)*EWBCost
}

// Touch records n >= 1 back-to-back accesses to one page — the lines a
// streaming sweep touches inside the page — and reports whether the first
// of them faulted and how many evictions that fault forced (its price is
// FaultCycles).  Only the first access can fault, and it leaves the page
// resident and referenced, so the rest just advance the touch clock; so
// does the whole run when the memo says the page is already in that
// state.
func (m *Manager) Touch(page uint64, n int) (fault bool, evictions int) {
	if n < 1 {
		panic("epc: empty touch run")
	}
	memo := &m.memo[page%memoSize]
	if *memo == page+1 {
		m.countTouches(page, uint64(n))
	} else {
		fault, evictions = m.touchOne(page)
		m.countTouches(page, uint64(n-1))
		*memo = page + 1
	}
	return fault, evictions
}

// countTouches advances the touch clock over n touches of one page, each
// recorded by the working-set estimate when the page passes its sampling
// gate.
func (m *Manager) countTouches(page uint64, n uint64) {
	if m.wss != nil && m.wss.sampled(page) {
		for end := m.touches + n; m.touches < end; {
			m.touches++
			m.wss.touch(page, m.touches)
		}
	} else {
		m.touches += n
	}
}

// touchOne is one touch: it leaves the page resident and referenced.
func (m *Manager) touchOne(page uint64) (fault bool, evictions int) {
	m.countTouches(page, 1)
	if referenced, ok := m.resident[page]; ok {
		if !referenced {
			m.resident[page] = true
		}
		return false, 0
	}
	m.faults++
	for len(m.resident) >= m.capacity {
		m.evictOne()
		evictions++
	}
	m.resident[page] = true
	m.clock = append(m.clock, page+1)
	return true, evictions
}

// evictOne runs the clock (second-chance) algorithm and evicts one
// victim.  The victim's slot is left empty rather than cut out of the
// clock: the hand skips empty slots, so the order is the one a cut would
// leave.
func (m *Manager) evictOne() {
	if len(m.resident) == 0 {
		panic("epc: evict from empty clock")
	}
	for ; ; m.hand++ {
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		if m.clock[m.hand] == 0 {
			continue
		}
		page := m.clock[m.hand] - 1
		if m.resident[page] {
			m.resident[page] = false
			if memo := &m.memo[page%memoSize]; *memo == page+1 {
				*memo = 0
			}
			continue
		}
		// Victim found: EWB.
		m.evictions++
		m.clock[m.hand] = 0
		m.hand++
		if m.dead++; 2*m.dead > len(m.clock) {
			m.compact()
		}
		delete(m.resident, page)
		return
	}
}

// compact drops the clock's empty slots in order, keeping the hand on the
// same next page.
func (m *Manager) compact() {
	live, hand := m.clock[:0], m.hand
	for i, slot := range m.clock {
		if slot != 0 {
			live = append(live, slot)
		} else if i < m.hand {
			hand--
		}
	}
	m.clock, m.hand, m.dead = live, hand, 0
}
