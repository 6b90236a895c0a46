package core

import "hotcalls/internal/sim"

// LatencyModel produces HotCall round-trip latencies in simulated cycles,
// calibrated to the paper's Figure 3: over 78% of calls complete in less
// than 620 cycles and 99.97% within 1,400 cycles.
//
// The shape is mechanistic: a fixed request-setup plus dispatch cost, two
// loop-phase alignment terms (the requester arrives at a uniformly random
// point of the responder's poll loop, and later observes completion at a
// uniformly random point of its own completion-poll loop), occasional
// extra lock-acquisition rounds when the PAUSE windows of the two sides
// collide, and a rare long tail from interrupts hitting the responder.
type LatencyModel struct {
	rng *sim.RNG

	// Calibrated parameters.
	Fixed      float64 // request setup + dispatch + return pickup
	LoopPeriod float64 // poll-loop length: lock, check, PAUSE
	RetryProb  float64 // probability of at least one lock-contention retry
	RetryGeom  float64 // per-round continuation probability of retrying
	TailProb   float64 // probability of an interrupt-induced spike
	TailBase   float64
	TailMean   float64
}

// NewLatencyModel returns the calibrated model.
func NewLatencyModel(rng *sim.RNG) *LatencyModel {
	return &LatencyModel{
		rng:        rng,
		Fixed:      400,
		LoopPeriod: 140,
		RetryProb:  0.15,
		RetryGeom:  0.35,
		TailProb:   0.0004,
		TailBase:   900,
		TailMean:   400,
	}
}

// Mean returns the closed-form expected round-trip latency: the fixed
// cost, the two uniform loop-phase terms (LoopPeriod/2 each), the
// expected contention rounds (RetryProb first rounds, each continuing
// with probability RetryGeom), and the rare interrupt tail.  The
// profiler's cross-validation test (internal/profile) checks the
// trace-attributed spin-wait mean against this expression.
func (m *LatencyModel) Mean() float64 {
	retry := m.RetryProb * m.LoopPeriod / (1 - m.RetryGeom)
	return m.Fixed + m.LoopPeriod + retry + m.TailProb*(m.TailBase+m.TailMean)
}

// Scale returns a copy of the model with every cycle-valued parameter
// multiplied by f, probabilities untouched, sharing the receiver's RNG
// stream.  Mean and Sample scale by exactly f, which is what lets the
// profile experiment (internal/bench/profile.go) check the profiler's
// predicted speedup against a re-run on a scaled model.
func (m *LatencyModel) Scale(f float64) *LatencyModel {
	s := *m
	s.Fixed *= f
	s.LoopPeriod *= f
	s.TailBase *= f
	s.TailMean *= f
	return &s
}

// Sample draws one HotCall round-trip latency in cycles.
func (m *LatencyModel) Sample() float64 {
	lat := m.Fixed +
		m.rng.Uniform(0, m.LoopPeriod) + // responder pickup phase
		m.rng.Uniform(0, m.LoopPeriod) // requester completion phase
	if m.rng.Bool(m.RetryProb) {
		// Contention: one or more extra poll rounds, geometrically
		// distributed.
		lat += m.LoopPeriod
		for m.rng.Bool(m.RetryGeom) {
			lat += m.LoopPeriod
		}
	}
	if m.rng.Bool(m.TailProb) {
		lat += m.TailBase + m.rng.Exp(m.TailMean)
	}
	return lat
}
