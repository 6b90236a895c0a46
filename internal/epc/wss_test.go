package epc

import (
	"testing"

	"hotcalls/internal/sim"
)

func newTracked(capPages int, window uint64) *Manager {
	m := newTestManager(capPages)
	m.TrackWSS(window)
	return m
}

// sampledTouch is the tests' own statement of the sampling gate: a page
// is sampled at 1-in-2^bits when the top bits of page*hashMul are zero,
// and every page is at bits 0.
func sampledTouch(page uint64, bits uint) bool {
	return bits == 0 || (page*hashMul)>>(64-bits) == 0
}

// TestExactWSSSequential checks the estimate against ground truth at a
// capacity small enough that every touch is sampled: N distinct pages
// inside the window estimate to exactly N.
func TestExactWSSSequential(t *testing.T) {
	const n = 1000
	m := newTracked(256, n)
	if m.wss.sampleBits != 0 {
		t.Fatalf("sampleBits = %d, want 0 (exact)", m.wss.sampleBits)
	}
	for p := uint64(0); p < n; p++ {
		m.Touch(p, 1)
	}
	if got := m.WSSPages(); got != n {
		t.Fatalf("exact WSS = %d, want %d", got, n)
	}
}

// TestWSSWindowExpiry checks Denning's window semantics: pages whose last
// touch aged past the window stop counting.
func TestWSSWindowExpiry(t *testing.T) {
	const window = 100
	m := newTracked(1024, window)
	m.Touch(9999, 1) // t=1: will age out
	const others = 300
	for p := uint64(0); p < others; p++ {
		m.Touch(p, 1) // t=2..301
	}
	// now=301; a page is fresh iff now-at <= window, i.e. at >= 201:
	// the last 101 touches, all distinct pages.
	if got, want := m.WSSPages(), uint64(window+1); got != want {
		t.Fatalf("WSS = %d, want %d (window %d of %d touches)", got, want, window, others+1)
	}
}

// accuracyCap is the EPC the accuracy fixtures run on: large enough
// that the sampling TrackWSS sizes for it is 1-in-8.
const accuracyCap = 8 * maxSamples / 4

// wssAccuracy drives an access pattern through a sampled estimate and
// two test-side references, the pattern being a function from step to
// page.  The estimate must equal the sampled reference — the pages that
// pass sampledTouch and were last touched within the window, scaled by
// the sampling rate — exactly, and land within tolPct of the truth, the
// distinct pages touched within the window.
func wssAccuracy(t *testing.T, window uint64, steps int, tolPct float64, page func(i int) uint64) {
	t.Helper()
	const bits = 3
	m := newTracked(accuracyCap, window)
	if m.wss.sampleBits != bits {
		t.Fatalf("sampleBits = %d, want %d", m.wss.sampleBits, bits)
	}

	last := make(map[uint64]uint64) // page → touch time
	var clock uint64
	for i := 0; i < steps; i++ {
		p := page(i)
		m.Touch(p, 1)
		clock++
		last[p] = clock
	}
	var truth, sampled uint64
	for p, at := range last {
		if clock-at <= window {
			truth++
			if sampledTouch(p, bits) {
				sampled++
			}
		}
	}
	est := m.WSSPages()
	if want := sampled << bits; est != want {
		t.Fatalf("estimate %d, want exactly %d: %d sampled pages in the window at 1-in-%d", est, want, sampled, 1<<bits)
	}
	err := (float64(est) - float64(truth)) / float64(truth) * 100
	t.Logf("exact WSS %d, estimate %d (1-in-%d sampling), error %+.1f%%", truth, est, 1<<bits, err)
	if err < -tolPct || err > tolPct {
		t.Fatalf("estimate %d off exact %d by %+.1f%%, tolerance ±%.0f%%", est, truth, err, tolPct)
	}
}

// TestSampledWSSAccuracy checks the hash-sampled estimate across the
// three shapes that matter: a resident sequential set, a skewed
// (zipf-like) mix, and an oversubscribed cyclic thrash.  Against its own
// sample it is exact; against the truth the tolerances are the estimate's
// error budget (the sampled page subset is a deterministic 1-in-2^bits
// hash draw).
func TestSampledWSSAccuracy(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		const n = accuracyCap / 2
		wssAccuracy(t, n, 3*n, 15, func(i int) uint64 { return uint64(i % n) })
	})
	t.Run("zipfian", func(t *testing.T) {
		rng := sim.NewRNG(42)
		const span = 4 * accuracyCap
		wssAccuracy(t, span, 50000, 25, func(i int) uint64 {
			u := rng.Float64()
			return uint64(u * u * u * span) // cube-skewed toward page 0
		})
	})
	t.Run("thrash", func(t *testing.T) {
		const ws = 2 * accuracyCap
		wssAccuracy(t, ws, 3*ws, 15, func(i int) uint64 { return uint64(i % ws) })
	})
}

// TestSampleBudgetBound floods the estimate with distinct pages under
// exact sampling and checks the sample set stays within maxSamples.
func TestSampleBudgetBound(t *testing.T) {
	// The largest EPC still sampled exactly: 4×1024 pages fit the budget.
	m := newTracked(1024, 1<<20)
	for p := uint64(0); p < maxSamples+256; p++ {
		m.Touch(p, 1)
	}
	// Every touch is sampled and nothing ages out of the huge window, so
	// the estimate equals the bounded sample population.
	if got := m.WSSPages(); m.wss.sampleBits != 0 || got != maxSamples {
		t.Fatalf("WSS = %d at 1-in-%d, want the sample budget %d at exact sampling", got, 1<<m.wss.sampleBits, maxSamples)
	}
}

// TestAutoSampleBits checks the capacity-driven sizing: a 93 MB EPC
// needs 1-in-32 sampling to fit the budget, a tiny one samples
// everything.
func TestAutoSampleBits(t *testing.T) {
	if bits := newTracked(DefaultCapacityBytes/PageSize, 1).wss.sampleBits; bits != 5 {
		t.Fatalf("default-capacity bits = %d, want 5 (1-in-32)", bits)
	}
	if bits := newTracked(64, 1).wss.sampleBits; bits != 0 {
		t.Fatalf("tiny-capacity bits = %d, want 0 (4*64 pages fit the budget)", bits)
	}
}

// TestWSSSamplingGate checks the estimate records exactly the pages
// sampledTouch admits at its rate.
func TestWSSSamplingGate(t *testing.T) {
	const bits = 3
	m := newTestManager(64)
	m.wss = newWSS(1<<20, bits)

	const n = 512
	want := 0
	for p := uint64(0); p < n; p++ {
		m.Touch(p, 1)
		if sampledTouch(p, bits) {
			want++
			if _, ok := m.wss.samples[p]; !ok {
				t.Fatalf("page %d passes the gate but was not sampled", p)
			}
		}
	}
	if len(m.wss.samples) != want {
		t.Fatalf("sampled %d pages, want %d", len(m.wss.samples), want)
	}
	if want == 0 {
		t.Fatal("gate admitted no pages at 1-in-8 over 512 pages; hash is broken")
	}
}

// TestWSSZeroAllocResidentPath checks that with the estimate on, an
// unsampled resident touch allocates nothing.
func TestWSSZeroAllocResidentPath(t *testing.T) {
	m := newTracked(accuracyCap, 4*accuracyCap)
	if m.wss.sampleBits == 0 {
		t.Fatal("the fixture samples every touch; it needs a capacity that samples")
	}
	page := uint64(0) // an unsampled page
	for sampledTouch(page, m.wss.sampleBits) {
		page++
	}
	m.Touch(page, 1) // warm: fault it in
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Touch(page, 1)
	}); allocs != 0 {
		t.Fatalf("resident touch with the estimate on allocates %.1f times per op, want 0", allocs)
	}
}

// TestWSSZeroAllocFaultDelta checks the sampled fault path: the manager
// itself may allocate when installing pages, so the criterion is the
// delta — tracking the working set must add no allocations once its
// samples are warm.
func TestWSSZeroAllocFaultDelta(t *testing.T) {
	run := func(track bool) float64 {
		m := NewManager(PageSize) // capacity 1: every touch faults and evicts
		if track {
			// A one-page EPC samples every touch: the sampled fault path.
			m.TrackWSS(4)
		}
		// Warm: both pages installed and evicted once.
		const pa, pb = 0, 1
		m.Touch(pa, 1)
		m.Touch(pb, 1)
		m.Touch(pa, 1)
		flip := false
		return testing.AllocsPerRun(1000, func() {
			if flip {
				m.Touch(pa, 1)
			} else {
				m.Touch(pb, 1)
			}
			flip = !flip
		})
	}
	off := run(false)
	on := run(true)
	if on > off {
		t.Fatalf("the estimate adds allocations on the fault path: %.2f with vs %.2f without", on, off)
	}
}

// TestOversubscriptionEarlyWarning drives a working set that grows past
// capacity: the estimate must cross 85 % of capacity before the first
// eviction — an at-time estimate, not an eviction echo — and the storm
// that follows must show in the exact counts.
func TestOversubscriptionEarlyWarning(t *testing.T) {
	const capPages = 1024
	m := newTracked(capPages, 4096)

	// Phase 1: resident at 39% of capacity — healthy.
	for p := uint64(0); p < 400; p++ {
		m.Touch(p, 1)
	}
	if wss, ev := m.WSSPages(), evictions(m); wss*100 >= 85*capPages || ev != 0 {
		t.Fatalf("healthy phase: WSS %d of %d pages, %d evictions", wss, capPages, ev)
	}

	// Phase 2: the working set grows to 88% of capacity.  Still zero
	// evictions — the fault storm has not started — but the WSS crosses
	// 85%.
	for p := uint64(0); p < 900; p++ {
		m.Touch(p, 1)
	}
	if wss := m.WSSPages(); wss*100 < 85*capPages {
		t.Fatalf("WSS %d of %d pages at 88%% occupancy: no early warning", wss, capPages)
	}
	if ev := evictions(m); ev != 0 {
		t.Fatalf("phase 2 should be eviction-free, got %d", ev)
	}

	// Phase 3: 1,300 fresh pages stream through — the storm.  Every one
	// faults, and every fault past capacity evicts.
	for p := uint64(900); p < 2200; p++ {
		m.Touch(p, 1)
	}
	if _, faults, ev := m.Stats(); faults != 2200 || ev != 2200-capPages {
		t.Fatalf("storm: %d faults, %d evictions; want 2200, %d", faults, ev, 2200-capPages)
	}
}

func evictions(m *Manager) uint64 {
	_, _, ev := m.Stats()
	return ev
}
