package telemetry

import (
	"slices"
	"testing"

	"hotcalls/internal/sim"
)

// TestQuantileEdgeCases pins the clamping and degenerate-snapshot
// behaviour: out-of-range q must clamp instead of converting a negative
// float to a huge uint64 rank, and a single observation is reported
// exactly.
func TestQuantileEdgeCases(t *testing.T) {
	single := func(v uint64) HistogramSnapshot {
		h := &Histogram{}
		h.Observe(v)
		return h.Snapshot()
	}
	multi := func(vs ...uint64) HistogramSnapshot {
		h := &Histogram{}
		for _, v := range vs {
			h.Observe(v)
		}
		return h.Snapshot()
	}

	tests := []struct {
		name string
		snap HistogramSnapshot
		q    float64
		want uint64
		// exact: want is the exact answer; otherwise want bounds below
		// and wantHi bounds above.
		exact  bool
		wantHi uint64
	}{
		{name: "empty q=0.5", snap: HistogramSnapshot{}, q: 0.5, want: 0, exact: true},
		{name: "single exact q=0", snap: single(8640), q: 0, want: 8640, exact: true},
		{name: "single exact q=0.5", snap: single(8640), q: 0.5, want: 8640, exact: true},
		{name: "single exact q=1", snap: single(8640), q: 1, want: 8640, exact: true},
		{name: "single exact q=-3", snap: single(8640), q: -3, want: 8640, exact: true},
		{name: "single zero", snap: single(0), q: 0.5, want: 0, exact: true},
		{name: "negative q clamps to min bucket", snap: multi(100, 200, 40000), q: -0.5, want: 64, wantHi: 127},
		{name: "q=0 reports min bucket", snap: multi(100, 200, 40000), q: 0, want: 64, wantHi: 127},
		{name: "q>1 clamps to max bucket", snap: multi(100, 200, 40000), q: 2, want: 32768, wantHi: 65535},
		{name: "q=1 reports max bucket", snap: multi(100, 200, 40000), q: 1, want: 32768, wantHi: 65535},
	}
	for _, tc := range tests {
		got := tc.snap.Quantile(tc.q)
		if tc.exact {
			if got != tc.want {
				t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
			}
			continue
		}
		if got < tc.want || got > tc.wantHi {
			t.Errorf("%s: Quantile(%v) = %d, want in [%d, %d]", tc.name, tc.q, got, tc.want, tc.wantHi)
		}
	}
}

// TestQuantileAgainstExact runs the log2 histogram over a stream kept
// whole beside it and checks every quantile estimate stays within one
// log2 bucket of the exact (nearest-rank) order statistic — the accuracy
// contract the interpolation comment claims.
func TestQuantileAgainstExact(t *testing.T) {
	rng := sim.NewRNG(99)
	h := &Histogram{}
	const n = 60000
	exact := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := uint64(400 + rng.Intn(1200))
		switch rng.Intn(3) {
		case 0:
			v = uint64(8000 + rng.Intn(7000))
		case 1:
			v = uint64(rng.Intn(150))
		}
		h.Observe(v)
		exact = append(exact, v)
	}
	slices.Sort(exact)
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		est := snap.Quantile(q)
		want := exact[min(int(q*n), n-1)]
		// One log2 bucket of slack: the estimate must land inside
		// [want/2, want*2] (plus absolute slack near zero).
		lo, hi := want/2, want*2+2
		if est < lo || est > hi {
			t.Errorf("q=%v: histogram estimate %d outside [%d, %d] around exact %d", q, est, lo, hi, want)
		}
	}
}
