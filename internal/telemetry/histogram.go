package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 latency buckets.  Bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]
// (bucket 0 holds exactly v == 0).  65 buckets cover the full uint64
// cycle range, so no observation is ever dropped.
const histBuckets = 65

// Histogram is a fixed-bucket log2 cycle-latency histogram.  Observe is
// two atomic adds and takes no locks; a nil *Histogram is a valid
// disabled histogram.  Log2 buckets match how the paper's latencies
// spread — the interesting boundaries (620, 1400, 8640, 14000 cycles)
// land in distinct buckets while one histogram still spans from a cache
// hit to a paging storm.
type Histogram struct {
	name    string
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf returns the bucket index for an observation.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper returns the inclusive upper bound of bucket i, or
// math.MaxUint64 for the last bucket.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one latency observation in cycles.
func (h *Histogram) Observe(cycles uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(cycles)].Add(1)
	h.sum.Add(cycles)
}

// ObserveSince records the elapsed cycles between two clock readings.
func (h *Histogram) ObserveSince(start, now uint64) { h.Observe(now - start) }

// Name returns the histogram's registry name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable
// with snapshots of other shards or processes.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Sum     uint64
	Count   uint64
}

// Snapshot atomically reads every bucket.  On a nil histogram it returns
// the zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// Sub returns the interval histogram between an earlier snapshot o and
// this one: per-bucket differences, clamped at zero so a reset or a
// mismatched pair degrades to an empty interval instead of wrapping.
// This is how the monitor turns two cumulative snapshots into the
// latency distribution of just the sampling window.
func (s HistogramSnapshot) Sub(o HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range s.Buckets {
		if s.Buckets[i] > o.Buckets[i] {
			d.Buckets[i] = s.Buckets[i] - o.Buckets[i]
			d.Count += d.Buckets[i]
		}
	}
	if s.Sum > o.Sum {
		d.Sum = s.Sum - o.Sum
	}
	return d
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) by
// linear interpolation inside the log2 bucket the target rank falls in:
// the rank's fractional position among the bucket's observations maps
// onto the bucket's value range [lower, upper].  This keeps the estimate
// within one bucket of the true order statistic while avoiding the
// systematic upward bias of reporting bucket upper bounds (a p50 of
// 8,640-cycle ecalls reports ~8.7k, not 16,383).  q is clamped into
// [0, 1] — without the clamp a negative q converts to a huge uint64 rank
// and silently reports the maximum.  Returns 0 on an empty snapshot; a
// single-observation snapshot returns that observation exactly (Sum).
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if s.Count == 1 {
		return s.Sum
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+n <= rank {
			seen += n
			continue
		}
		lower := float64(BucketUpper(i-1)) + 1
		if i == 0 {
			return 0 // bucket 0 holds exactly v == 0
		}
		upper := float64(BucketUpper(i))
		if i >= 64 {
			// Open-ended top bucket: no finite width to interpolate over.
			return BucketUpper(i)
		}
		// Midpoint convention: the k-th of n observations sits at
		// fraction (k + 0.5) / n of the bucket's value range.
		frac := (float64(rank-seen) + 0.5) / float64(n)
		return uint64(lower + frac*(upper-lower))
	}
	return BucketUpper(histBuckets - 1)
}
