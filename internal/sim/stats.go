package sim

import "sort"

// Sample accumulates latency observations (in cycles) and answers the
// order-statistics questions the paper's tables and CDF figures ask:
// median, arbitrary percentiles, and fraction-below-threshold.
//
// The zero value is an empty sample ready for Add.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns a sample with capacity pre-allocated for n
// observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddCycles records one observation expressed as a cycle count.
func (s *Sample) AddCycles(v uint64) { s.Add(float64(v)) }

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.values) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Median returns the 50th percentile, or 0 on an empty sample (see
// Percentile).
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.  An empty sample has no order
// statistics; rather than panic mid-experiment, it returns the
// documented zero value 0 — callers that must distinguish "empty" from
// "measured zero cycles" check Len first.  A single-element sample
// returns that element for every p.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic("sim: percentile out of range")
	}
	s.sort()
	if len(s.values) == 1 {
		return s.values[0]
	}
	rank := float64(p / 100 * float64(len(s.values)-1))
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	return float64(s.values[lo]*(1-frac)) + float64(s.values[lo+1]*frac)
}

// FractionBelow reports the fraction of observations <= threshold.
func (s *Sample) FractionBelow(threshold float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	idx := sort.SearchFloat64s(s.values, threshold)
	// Include ties at exactly threshold.
	for idx < len(s.values) && s.values[idx] == threshold {
		idx++
	}
	return float64(idx) / float64(len(s.values))
}

// CDFPoint is one (latency, cumulative-fraction) pair of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical cumulative distribution sampled at n evenly
// spaced fractions, suitable for plotting the paper's Figures 2 and 3.
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.values) == 0 || n <= 0 {
		return nil
	}
	s.sort()
	points := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		idx := int(f*float64(len(s.values))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s.values) {
			idx = len(s.values) - 1
		}
		points = append(points, CDFPoint{Value: s.values[idx], Fraction: f})
	}
	return points
}
