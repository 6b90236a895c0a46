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
// not encryption.
//
// Pages are owner-tagged: each page carries the OwnerID of the enclave or
// tenant that faulted it in, so paging traffic can be attributed per owner
// (which owner's fault evicted which owner's page).  An optional Observer
// receives fault/evict events exactly and a hash-sampled subset of touches
// — the feed internal/epcstat turns into working-set estimates and
// interference matrices.
package epc

import "sync"

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

// OwnerID identifies the enclave/tenant a page belongs to.  Owner 0 is
// the anonymous single-enclave default.
type OwnerID uint32

// Observer receives the manager's paging events.  Fault and evict events
// are delivered exactly (attribution must sum); touches are sampled by a
// per-page multiplicative hash so the unsampled hot path stays one
// multiply + shift + compare.  Callbacks run serialised with the paging
// (see Manager): they must be fast, must not allocate in steady state, and
// must not call back into the Manager.  Flush is invoked by FlushObserver,
// under the lock, to publish accumulated state to concurrent readers; now
// is the manager's cumulative touch count (the observer's clock).
type Observer interface {
	// ObserveTouch reports a hash-sampled touch of a page (resident or
	// faulting) at touch-clock time now.
	ObserveTouch(owner OwnerID, page uint64, now uint64)
	// ObserveFault reports every fault, before its evictions.
	ObserveFault(owner OwnerID, page uint64)
	// ObserveEvict reports every eviction: culprit is the owner whose
	// fault forced it, victim the owner of the evicted page.
	ObserveEvict(culprit, victim OwnerID, page uint64)
	// Flush publishes accumulated observer state for concurrent readers.
	Flush(now uint64)
}

// memoSize is the number of direct-mapped residency memo entries.  What a
// request keeps returning to is a few dozen pages — its staging buffers,
// its own request and response buffers — so 64 entries answer 93 % of the
// three simulated servers' touch runs, and 1024 would answer 94 %: the
// rest is bulk data touched once.
const memoSize = 64

// hashMul is the multiplicative page-sampling hash constant (splitmix64's
// golden-ratio increment): page*hashMul mixes low page-number entropy into
// the top bits the sample gate tests.
const hashMul = 0x9E3779B97F4A7C15

type pageState struct {
	owner      OwnerID // the owner whose fault installed the page
	referenced bool    // clock algorithm reference bit
}

// Manager tracks EPC residency for a set of enclave pages and charges
// paging costs.  Page numbers are virtual page indices (address/PageSize).
// One mutex serialises the paging state, matching the real SGX driver's
// single paging lock; every method takes it but TouchRunAs, which is for
// a manager one goroutine owns (a mem.System's).  A shared manager (the
// fabric's) is touched through TouchAs.
type Manager struct {
	mu       sync.Mutex
	capacity int // pages
	resident map[uint64]pageState
	clock    []uint64 // page+1 of each resident page in install order; 0 = evicted slot
	hand     int
	dead     int // evicted slots in clock, dropped by compact

	// memo[p%memoSize] == p+1 records that page p is resident and its
	// reference bit is set — the state in which a touch changes nothing
	// but the touch clock, so TouchRunAs need not consult the map.  The
	// one place a reference bit is cleared (the clock hand in evictOne,
	// which every eviction passes through first) drops the page's entry.
	memo [memoSize]uint64

	faults    uint64
	evictions uint64
	touches   uint64

	// Observer hook (nil when no observatory is attached).  sampleShift
	// implements the touch-sampling gate: a touch is sampled when the top
	// sampleBits bits of page*hashMul are zero, i.e. with probability
	// 2^-sampleBits; shift 64 (sampleBits 0) samples every touch.
	obs         Observer
	sampleShift uint
}

// NewManager returns an EPC manager with the given capacity in bytes.
func NewManager(capacityBytes int) *Manager {
	if capacityBytes < PageSize {
		panic("epc: capacity below one page")
	}
	return &Manager{
		capacity: capacityBytes / PageSize,
		resident: make(map[uint64]pageState),
	}
}

// CapacityPages returns the EPC capacity in pages.
func (m *Manager) CapacityPages() int { return m.capacity }

// ResidentPages returns the number of currently resident pages.
func (m *Manager) ResidentPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.resident)
}

// Stats returns cumulative touch, fault, and eviction counts.
func (m *Manager) Stats() (touches, faults, evictions uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.touches, m.faults, m.evictions
}

// SetObserver attaches (or with nil detaches) the paging observer.
// sampleBits sets the touch-sampling rate to 1-in-2^sampleBits by page
// hash (0 samples every touch); fault and evict events are always
// delivered exactly.  Attach before the first touch so the observer's
// per-owner residency accounting starts from an empty EPC.
func (m *Manager) SetObserver(obs Observer, sampleBits uint) {
	if sampleBits > 63 {
		sampleBits = 63
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs = obs
	m.sampleShift = 64 - sampleBits
}

// FlushObserver publishes the observer's accumulated state (Observer.
// Flush under the manager's lock).  Snapshot readers call it to get a
// consistent view without racing the paging path.
func (m *Manager) FlushObserver() {
	m.mu.Lock()
	if m.obs != nil {
		m.obs.Flush(m.touches)
	}
	m.mu.Unlock()
}

// FaultCycles is the paging cost of one fault that forced the given number
// of evictions: trap + ELDU, plus one EWB each.
func FaultCycles(evictions int) float64 {
	return FaultCost + float64(evictions)*EWBCost
}

// TouchAs records an access to a page by the given owner and returns the
// paging cost in cycles: zero when resident, FaultCost (plus this fault's
// share of any needed eviction work) when the page must be brought in.
// A faulting page is stamped with the toucher's owner ID; a resident
// page keeps its installer's.
func (m *Manager) TouchAs(owner OwnerID, page uint64) (fault bool, cycles float64) {
	m.mu.Lock()
	fault, evictions := m.TouchRunAs(owner, page, 1)
	m.mu.Unlock()
	if !fault {
		return false, 0
	}
	return true, FaultCycles(evictions)
}

// TouchRunAs records n >= 1 back-to-back accesses to one page by the given
// owner — the lines a streaming sweep touches inside the page — and
// reports whether the first of them faulted and how many evictions that
// fault forced.  It is n TouchAs calls with at most one residency lookup:
// only the first access can fault, and it leaves the page resident and
// referenced, so the rest just advance the touch clock and feed the
// sampled observer, in the same order — as does the whole run when the
// memo says the page is already in that state.  It takes no lock.
func (m *Manager) TouchRunAs(owner OwnerID, page uint64, n int) (fault bool, evictions int) {
	if n < 1 {
		panic("epc: empty touch run")
	}
	memo := &m.memo[page%memoSize]
	if *memo == page+1 {
		m.countTouches(owner, page, uint64(n))
	} else {
		fault, evictions = m.touchOne(owner, page)
		m.countTouches(owner, page, uint64(n-1))
		*memo = page + 1
	}
	return fault, evictions
}

// countTouches advances the touch clock over n touches of one page, each
// delivered to the observer when the page passes the sampling gate.
func (m *Manager) countTouches(owner OwnerID, page uint64, n uint64) {
	if m.obs != nil && (page*hashMul)>>m.sampleShift == 0 {
		for end := m.touches + n; m.touches < end; {
			m.touches++
			m.obs.ObserveTouch(owner, page, m.touches)
		}
	} else {
		m.touches += n
	}
}

// touchOne is one touch: it leaves the page resident and referenced.
func (m *Manager) touchOne(owner OwnerID, page uint64) (fault bool, evictions int) {
	m.countTouches(owner, page, 1)
	if st, ok := m.resident[page]; ok {
		if !st.referenced {
			st.referenced = true
			m.resident[page] = st
		}
		return false, 0
	}
	m.faults++
	if m.obs != nil {
		m.obs.ObserveFault(owner, page)
	}
	for len(m.resident) >= m.capacity {
		m.evictOne(owner)
		evictions++
	}
	m.install(owner, page)
	return true, evictions
}

func (m *Manager) install(owner OwnerID, page uint64) {
	m.resident[page] = pageState{owner: owner, referenced: true}
	m.clock = append(m.clock, page+1)
}

// evictOne runs the clock (second-chance) algorithm and evicts one victim,
// attributing the eviction to the faulting culprit owner.  The
// victim's slot is left empty rather than cut out of the clock: the hand
// skips empty slots, so the order is the one a cut would leave.
func (m *Manager) evictOne(culprit OwnerID) {
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
		st := m.resident[page]
		if st.referenced {
			st.referenced = false
			m.resident[page] = st
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
		if m.obs != nil {
			m.obs.ObserveEvict(culprit, st.owner, page)
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

// SampledTouch reports whether a touch of the given page passes the
// sampling gate at the given sampleBits — exported so tests and the
// observatory can reason about which pages the estimator sees.
func SampledTouch(page uint64, sampleBits uint) bool {
	if sampleBits > 63 {
		sampleBits = 63
	}
	return (page*hashMul)>>(64-sampleBits) == 0
}
