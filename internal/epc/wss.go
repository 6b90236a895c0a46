package epc

// The working-set estimate: Denning's W(t, θ), the number of distinct
// pages touched within the last θ touches of the manager's touch clock.
// Exact tracking would need an entry per touched page, so the estimate
// keeps the recency of a hash-sampled page subset and scales the fresh
// count by the sampling rate.  Sampling is by page identity — a page is
// in or out for good — so per-page recency is exact for the sampled
// pages and repeated sweeps do not alias.

// maxSamples is the estimate's budget: it tracks at most this many
// pages.  TrackWSS sizes the sampling to fit it, and inserting past it
// first prunes entries outside the window and, when none are, evicts the
// stalest.
const maxSamples = 4096

// hashMul is the multiplicative page-sampling hash constant (splitmix64's
// golden-ratio increment): page*hashMul mixes low page-number entropy into
// the top bits the sample gate tests.
const hashMul = 0x9E3779B97F4A7C15

type wss struct {
	window      uint64            // θ in touch-clock ticks
	sampleBits  uint              // a page is sampled with probability 2^-sampleBits
	sampleShift uint              // 64 - sampleBits: shift 64 samples every page
	samples     map[uint64]uint64 // sampled page → touch-clock time of its last touch
}

func newWSS(window uint64, sampleBits uint) *wss {
	return &wss{
		window:      window,
		sampleBits:  sampleBits,
		sampleShift: 64 - sampleBits,
		samples:     make(map[uint64]uint64),
	}
}

// TrackWSS starts the working-set estimate with a window of the given
// number of touches: a page counts if it was touched within the last
// window touches.  The sampling rate is the smallest 1-in-2^bits at which
// a working set of four times the capacity fits the sample budget, so
// even an oversubscribed EPC is estimated without the overflow valve.
// Call it before the first touch.
func (m *Manager) TrackWSS(window uint64) {
	bits := uint(0)
	for (4*m.capacity)>>bits > maxSamples {
		bits++
	}
	m.wss = newWSS(window, bits)
}

// WSSPages returns the working-set estimate in pages: the sampled pages
// touched within the window, scaled by the sampling rate.  Sampled pages
// that aged out of the window are dropped as it counts.  It needs
// TrackWSS.
func (m *Manager) WSSPages() uint64 {
	w := m.wss
	var fresh uint64
	for page, at := range w.samples {
		if m.touches-at > w.window {
			delete(w.samples, page)
			continue
		}
		fresh++
	}
	return fresh << w.sampleBits
}

// sampled reports whether touches of page pass the sampling gate: the top
// sampleBits bits of page*hashMul are zero.
func (w *wss) sampled(page uint64) bool { return (page*hashMul)>>w.sampleShift == 0 }

// touch records a touch of a sampled page at touch-clock time now.
func (w *wss) touch(page, now uint64) {
	before := len(w.samples)
	w.samples[page] = now
	if len(w.samples) != before && len(w.samples) > maxSamples {
		w.makeRoom(now)
	}
}

// makeRoom is the overflow valve: it prunes the samples outside the
// window, which can no longer count, or, when none are, the single
// stalest.  O(samples), but the sampling rate TrackWSS picks keeps the
// population within the budget, so it seldom runs.
func (w *wss) makeRoom(now uint64) {
	var oldestPage, oldestAt uint64
	found, pruned := false, false
	for page, at := range w.samples {
		if now-at > w.window {
			delete(w.samples, page)
			pruned = true
			continue
		}
		if !found || at < oldestAt {
			found, oldestPage, oldestAt = true, page, at
		}
	}
	if !pruned && found {
		delete(w.samples, oldestPage)
	}
}
