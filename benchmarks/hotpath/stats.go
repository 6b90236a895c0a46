package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// pmaxBeyond is how many samples must lie beyond a reported percentile.
const pmaxBeyond = 10

// pmax returns the highest percentile of an ascending slice that still
// has pmaxBeyond samples above it, with its rank in (0,1).  With too few
// samples for any such percentile it falls back to the median.
func pmax(sorted []uint32) (value, rank float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 2*pmaxBeyond {
		return percentile(sorted, 0.5), 0.5
	}
	i := n - 1 - pmaxBeyond
	return float64(sorted[i]), float64(i+1) / float64(n)
}

// median returns the middle of xs (mean of the two middles when even)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianSegmentRate is the median of per-segment rates: edgeNs[k] is the
// time and total[k] the running count at segment edge k.  One stalled
// segment moves a mean but not this.  Edges that coincide (one unit
// spanning several segments) form no segment.
func medianSegmentRate(edgeNs []int64, total []uint64) float64 {
	var rates []float64
	for k := 1; k < len(edgeNs); k++ {
		if dt := edgeNs[k] - edgeNs[k-1]; dt > 0 {
			rates = append(rates, float64(total[k]-total[k-1])/(float64(dt)/1e9))
		}
	}
	return median(rates)
}

// stallShare is the share of total latency spent in samples above
// 10x the median: wall time the run lost to stalls rather than work.
func stallShare(sorted []uint32) float64 {
	if len(sorted) == 0 {
		return 0
	}
	limit := 10 * uint64(sorted[len(sorted)/2])
	var total, stalled uint64
	for _, v := range sorted {
		total += uint64(v)
		if uint64(v) > limit {
			stalled += uint64(v)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stalled) / float64(total)
}
