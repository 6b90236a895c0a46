package epcstat

import (
	"strings"
	"testing"

	"hotcalls/internal/epc"
	"hotcalls/internal/sim"
)

func newFixture(capPages int, opts Options) (*epc.Manager, *Collector) {
	var key [16]byte
	copy(key[:], "epcstat-test-key")
	m := epc.NewManager(capPages*epc.PageSize, key)
	c := New(opts)
	c.Attach(m)
	return m, c
}

// TestExactWSSSequential checks the estimator against ground truth at a
// capacity small enough that every touch is sampled: N distinct pages
// inside the window estimate to exactly N.
func TestExactWSSSequential(t *testing.T) {
	const n = 1000
	m, c := newFixture(256, Options{WindowTouches: n})
	for p := uint64(0); p < n; p++ {
		m.TouchAs(1, p)
	}
	s := c.Snapshot()
	if s == nil {
		t.Fatal("nil snapshot after traffic")
	}
	if s.WSSPages != n {
		t.Fatalf("exact WSS = %d, want %d", s.WSSPages, n)
	}
	if s.SampleBits != 0 {
		t.Fatalf("SampleBits = %d, want 0 (exact)", s.SampleBits)
	}
}

// TestWSSWindowExpiry checks Denning's window semantics: pages whose last
// touch aged past WindowTouches stop counting.
func TestWSSWindowExpiry(t *testing.T) {
	const window = 100
	m, c := newFixture(1024, Options{WindowTouches: window})
	m.TouchAs(1, 9999) // t=1: will age out
	const others = 300
	for p := uint64(0); p < others; p++ {
		m.TouchAs(1, p) // t=2..301
	}
	s := c.Snapshot()
	// now=301; a page is fresh iff now-at <= window, i.e. at >= 201:
	// the last 101 touches, all distinct pages.
	if want := uint64(window + 1); s.WSSPages != want {
		t.Fatalf("WSS = %d, want %d (window %d of %d touches)", s.WSSPages, want, window, others+1)
	}
}

// accuracyCap is the EPC the accuracy fixtures run on: large enough
// that the sampling Attach sizes for it is 1-in-8.
const accuracyCap = 8 * maxSamples / 4

// wssAccuracy drives an access pattern through a sampled collector and a
// test-side exact reference, then checks the estimate lands within tol of
// the truth.  The pattern is a function from step to page.
func wssAccuracy(t *testing.T, window uint64, steps int, tolPct float64, page func(i int) uint64) {
	t.Helper()
	const bits = 3
	m, c := newFixture(accuracyCap, Options{WindowTouches: window})

	last := make(map[uint64]uint64) // page → touch time, exact reference
	var clock uint64
	for i := 0; i < steps; i++ {
		p := page(i)
		m.TouchAs(1, p)
		clock++
		last[p] = clock
	}
	var exact uint64
	for _, at := range last {
		if clock-at <= window {
			exact++
		}
	}
	s := c.Snapshot()
	if s.SampleBits != bits {
		t.Fatalf("SampleBits = %d, want %d", s.SampleBits, bits)
	}
	est := float64(s.WSSPages)
	err := (est - float64(exact)) / float64(exact) * 100
	t.Logf("exact WSS %d, estimate %d (1-in-%d sampling), error %+.1f%%", exact, s.WSSPages, 1<<bits, err)
	if err < -tolPct || err > tolPct {
		t.Fatalf("estimate %d off exact %d by %+.1f%%, tolerance ±%.0f%%", s.WSSPages, exact, err, tolPct)
	}
}

// TestSampledWSSAccuracy checks the hash-sampled estimator against an
// exact reference across the three shapes that matter: a resident
// sequential set, a skewed (zipf-like) mix, and an oversubscribed
// cyclic thrash.  Tolerances are the documented estimator error budget
// (the sampled page subset is a deterministic 1-in-2^bits hash draw).
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

// TestAccountingInvariants drives two owners past capacity and checks the
// books balance: interference cells and both per-owner eviction views sum
// exactly to the manager's eviction total, and residency sums match.
func TestAccountingInvariants(t *testing.T) {
	const capPages = 64
	m, c := newFixture(capPages, Options{})
	for round := 0; round < 4; round++ {
		for p := uint64(0); p < 50; p++ {
			m.TouchAs(1, p)
		}
		for p := uint64(100); p < 150; p++ {
			m.TouchAs(2, p)
		}
	}
	s := c.Snapshot()
	_, faults, evictions := m.Stats()
	if s.Faults != faults {
		t.Fatalf("snapshot faults %d != manager %d", s.Faults, faults)
	}
	if s.Evictions != evictions {
		t.Fatalf("snapshot evictions %d != manager %d", s.Evictions, evictions)
	}
	if evictions == 0 {
		t.Fatal("fixture produced no evictions; not a pressure test")
	}
	var cellSum, victimSum, causeSum uint64
	var residentSum int64
	for _, cell := range s.Interference {
		cellSum += cell.Evictions
	}
	for _, o := range s.Owners {
		victimSum += o.Evictions
		causeSum += o.EvictionsCaused
		residentSum += o.ResidentPages
	}
	if cellSum != evictions {
		t.Fatalf("interference cells sum %d != evictions %d", cellSum, evictions)
	}
	if victimSum != evictions {
		t.Fatalf("victim-side owner evictions sum %d != evictions %d", victimSum, evictions)
	}
	if causeSum != evictions {
		t.Fatalf("culprit-side owner evictions sum %d != evictions %d", causeSum, evictions)
	}
	if residentSum != s.ResidentPages {
		t.Fatalf("owner residency sum %d != snapshot resident %d", residentSum, s.ResidentPages)
	}
	if int(s.ResidentPages) != m.ResidentPages() {
		t.Fatalf("snapshot resident %d != manager resident %d", s.ResidentPages, m.ResidentPages())
	}
}

// TestDeltaCumulativeAndInterval checks Sub: against nil it is the
// cumulative view with the documented thrash score; between two snapshots
// it isolates the interval and drops idle owners.
func TestDeltaCumulativeAndInterval(t *testing.T) {
	const capPages = 32
	m, c := newFixture(capPages, Options{})
	for p := uint64(0); p < 64; p++ {
		m.TouchAs(1, p)
	}
	s1 := c.Snapshot()
	d := s1.Sub(nil)
	if d.Touches != s1.Now || d.Faults != s1.Faults || d.Evictions != s1.Evictions {
		t.Fatalf("cumulative delta %+v does not match snapshot totals", d)
	}
	want := (float64(d.Faults)*epc.FaultCost + float64(d.Evictions)*epc.EWBCost) / float64(d.Touches)
	if d.ThrashScore != want {
		t.Fatalf("thrash score %.2f, want %.2f", d.ThrashScore, want)
	}

	// Interval: only owner 2 is active.
	for p := uint64(200); p < 216; p++ {
		m.TouchAs(2, p)
	}
	s2 := c.Snapshot()
	di := s2.Sub(s1)
	if di.Faults != s2.Faults-s1.Faults || di.Evictions != s2.Evictions-s1.Evictions {
		t.Fatalf("interval delta %+v, want faults %d evictions %d",
			di, s2.Faults-s1.Faults, s2.Evictions-s1.Evictions)
	}
	var sawOwner2 bool
	for _, o := range di.Owners {
		if o.Owner == 2 {
			sawOwner2 = true
			if o.Faults != 16 {
				t.Fatalf("owner 2 interval faults = %d, want 16", o.Faults)
			}
		}
	}
	if !sawOwner2 {
		t.Fatalf("interval delta lost the active owner: %+v", di.Owners)
	}

	// Reversed subtraction clamps instead of wrapping.
	back := s1.Sub(s2)
	if back.Faults != 0 || back.Evictions != 0 || back.Touches != 0 {
		t.Fatalf("reversed delta should clamp to zero, got %+v", back)
	}
	nd := (*Snapshot)(nil).Sub(s1)
	if nd.Touches != 0 || nd.Faults != 0 || len(nd.Owners) != 0 {
		t.Fatalf("nil snapshot Sub should be the zero delta, got %+v", nd)
	}
}

// TestSampleBudgetBound floods the collector with distinct pages under
// exact sampling and checks the sample set stays within maxSamples.
func TestSampleBudgetBound(t *testing.T) {
	// The largest EPC still sampled exactly: 4×1024 pages fit the budget.
	m, c := newFixture(1024, Options{WindowTouches: 1 << 20})
	for p := uint64(0); p < maxSamples+256; p++ {
		m.TouchAs(1, p)
	}
	s := c.Snapshot()
	// Every touch is sampled and nothing ages out of the huge window, so
	// the estimate equals the bounded sample population.
	if s.SampleBits != 0 || s.WSSPages != maxSamples {
		t.Fatalf("WSS = %d at 1-in-%d, want the sample budget %d at exact sampling", s.WSSPages, 1<<s.SampleBits, maxSamples)
	}
}

// TestAutoSampleBits checks the capacity-driven auto-sizing: a 93 MB EPC
// needs 1-in-32 sampling to fit the default budget, a tiny one samples
// everything.
func TestAutoSampleBits(t *testing.T) {
	_, cBig := newFixture(epc.DefaultCapacityBytes/epc.PageSize, Options{})
	if cBig.SampleBits() != 5 {
		t.Fatalf("default-capacity auto bits = %d, want 5 (1-in-32)", cBig.SampleBits())
	}
	_, cSmall := newFixture(64, Options{})
	if cSmall.SampleBits() != 0 {
		t.Fatalf("tiny-capacity auto bits = %d, want 0 (4*64 pages fit the budget)", cSmall.SampleBits())
	}
}

// TestObserverZeroAllocResidentPath checks the acceptance criterion
// directly: with the observatory attached, an unsampled resident touch
// allocates nothing.
func TestObserverZeroAllocResidentPath(t *testing.T) {
	m, c := newFixture(accuracyCap, Options{})
	if c.SampleBits() == 0 {
		t.Fatal("the fixture samples every touch; it needs a capacity that samples")
	}
	// An unsampled page.
	page := uint64(0)
	for epc.SampledTouch(page, c.SampleBits()) {
		page++
	}
	m.TouchAs(1, page) // warm: fault it in, create owner state
	if allocs := testing.AllocsPerRun(1000, func() {
		m.TouchAs(1, page)
	}); allocs != 0 {
		t.Fatalf("resident touch with observer attached allocates %.1f times per op, want 0", allocs)
	}
}

// TestObserverZeroAllocFaultDelta checks the fault/evict path: the
// manager itself allocates when installing and sealing pages, so the
// criterion is the observer-on/off *delta* — attaching the observatory
// must add no allocations once its per-owner state is warm.
func TestObserverZeroAllocFaultDelta(t *testing.T) {
	var key [16]byte
	copy(key[:], "epcstat-test-key")
	run := func(attach bool) float64 {
		m := epc.NewManager(epc.PageSize, key) // capacity 1: every touch faults+evicts
		if attach {
			// A one-page EPC samples every touch: the sampled fault path,
			// the heaviest the observer has.
			c := New(Options{})
			c.Attach(m)
		}
		// Two pages to alternate between.
		const pa, pb = 0, 1
		// Warm: both pages installed and evicted once, so owner state,
		// interference key, versions, and swap blobs all exist.
		m.TouchAs(1, pa)
		m.TouchAs(1, pb)
		m.TouchAs(1, pa)
		flip := false
		return testing.AllocsPerRun(1000, func() {
			if flip {
				m.TouchAs(1, pa)
			} else {
				m.TouchAs(1, pb)
			}
			flip = !flip
		})
	}
	off := run(false)
	on := run(true)
	if on > off {
		t.Fatalf("observer adds allocations on the fault path: %.2f with vs %.2f without", on, off)
	}
}

// TestRenderTextAndLabels checks the text view: labels resolve, the nil
// snapshot degrades gracefully, and the headline numbers appear.
func TestRenderTextAndLabels(t *testing.T) {
	if got := (*Snapshot)(nil).RenderText(); got != "epc: no snapshot yet\n" {
		t.Fatalf("nil render = %q", got)
	}
	if (*Collector)(nil).Snapshot() != nil {
		t.Fatal("nil collector Snapshot should be nil")
	}
	if New(Options{}).Snapshot() != nil {
		t.Fatal("unattached collector Snapshot should be nil")
	}

	m, c := newFixture(8, Options{})
	c.SetLabel(1, "web")
	for p := uint64(0); p < 12; p++ {
		m.TouchAs(1, p)
	}
	for p := uint64(100); p < 104; p++ {
		m.TouchAs(2, p)
	}
	txt := c.Snapshot().RenderText()
	for _, want := range []string{"web(#1)", "#2", "pages resident", "interference (culprit→victim evictions):"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("render missing %q:\n%s", want, txt)
		}
	}
}

// TestMEEStamp checks the wired MEE counter source lands in snapshots.
func TestMEEStamp(t *testing.T) {
	m, c := newFixture(8, Options{})
	c.SetMEEStats(func() (uint64, uint64) { return 123, 45 })
	m.TouchAs(1, 0)
	s := c.Snapshot()
	if s.MEENodeAccesses != 123 || s.MEENodeMisses != 45 {
		t.Fatalf("MEE counters = %d/%d, want 123/45", s.MEENodeAccesses, s.MEENodeMisses)
	}
}
