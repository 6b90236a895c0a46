// Package monitor is the always-on health layer over the telemetry
// registry: a low-overhead sampler that periodically snapshots the
// counters, gauges, and histograms of internal/telemetry into a bounded
// ring of interval samples, and a pluggable rule engine that evaluates
// snapshot windows for the operational hazards the paper's design trades
// into (Sections 4.2 and 7): a sleeping or overloaded responder turning
// ~620-cycle HotCalls into timeout→fallback ecall storms, a dedicated
// polling core wasting its busy-wait budget, latency SLO burn, and EPC
// paging thrash.
//
// PRs 1-2 built the raw signals (counters, histograms, deep traces);
// this package is the evaluation layer: it never instruments a hot path
// itself, it only reads registry snapshots, so its steady-state cost is
// one registry snapshot per sampling interval regardless of traffic
// (see BenchmarkCallMonitored — the instrumented-pair budget is <=1%).
package monitor

import (
	"time"

	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// Sample is one point on the monitor's timeline: the cumulative metric
// readings at sampling time plus the interval deltas and derived rates
// against the previous sample.  Rules consume windows of Samples.
type Sample struct {
	Seq  int       `json:"seq"`
	When time.Time `json:"when"`

	// Cumulative readings.
	Requests     uint64 `json:"requests"`
	Timeouts     uint64 `json:"timeouts"`
	Fallbacks    uint64 `json:"fallbacks"`
	HotECalls    uint64 `json:"hot_ecalls"`
	HotOCalls    uint64 `json:"hot_ocalls"`
	Polls        uint64 `json:"responder_polls"`
	Executes     uint64 `json:"responder_executes"`
	SpinCycles   uint64 `json:"spin_cycles"`
	EPCFaults    uint64 `json:"epc_faults"`
	EPCEvictions uint64 `json:"epc_evictions"`
	MEEHits      uint64 `json:"mee_hits"`
	MEEMisses    uint64 `json:"mee_misses"`

	// Point-in-time gauges.
	EPCResident int64 `json:"epc_resident_pages"`

	// Adaptive responder-pool fabric (internal/core CallPool).
	PoolResponders     int64 `json:"pool_responders"`
	PoolRespondersMax  int64 `json:"pool_responders_max"`
	PoolOccupancyMilli int64 `json:"pool_occupancy_milli"`

	// Interval deltas (zero on the first sample).
	DSubmissions uint64 `json:"d_submissions"`
	DTimeouts    uint64 `json:"d_timeouts"`
	DFallbacks   uint64 `json:"d_fallbacks"`
	DPolls       uint64 `json:"d_polls"`
	DExecutes    uint64 `json:"d_executes"`
	DSpinCycles  uint64 `json:"d_spin_cycles"`
	DEPCFaults   uint64 `json:"d_epc_faults"`
	DEPCEvicts   uint64 `json:"d_epc_evictions"`

	// Derived interval signals.
	TimeoutRate  float64 `json:"timeout_rate"`  // Δtimeouts / Δsubmissions
	FallbackRate float64 `json:"fallback_rate"` // Δfallbacks / Δsubmissions
	Occupancy    float64 `json:"occupancy"`     // Δexecutes / Δpolls
	MEEHitRate   float64 `json:"mee_hit_rate"`  // interval node-cache hit fraction

	// HotCall latency distribution of this interval: the percentiles
	// interpolate the log2 hotcall_cycles histogram delta.  Zeros when no
	// calls landed this interval.
	LatencyCount uint64 `json:"latency_count"`
	LatencyP50   uint64 `json:"latency_p50_cycles"`
	LatencyP95   uint64 `json:"latency_p95_cycles"`
	LatencyP99   uint64 `json:"latency_p99_cycles"`

	// EPC is the pressure observatory's snapshot at sampling time
	// (Options.EPC), cumulative like the counter fields; the EPC-scoped
	// rules diff consecutive samples' snapshots via Snapshot.Sub.  Nil
	// when no collector is attached.
	EPC *epcstat.Snapshot `json:"epc,omitempty"`
}

// Sampler turns successive registry snapshots into interval Samples.
// It is not itself goroutine-safe; Monitor serialises access.
type Sampler struct {
	reg     *telemetry.Registry
	seq     int
	prev    telemetry.Snapshot
	hasPrev bool

	flight *flight.Recorder

	epcCol *epcstat.Collector
}

// NewSampler returns a sampler over the registry.  A nil registry is
// valid and produces all-zero samples.
func NewSampler(reg *telemetry.Registry) *Sampler {
	return &Sampler{reg: reg}
}

// SetFlight attaches (or, with nil, detaches) the flight recorder each
// sample digests: one fold of its rings per tick keeps its stats table
// current for /debug/flight, /metrics and incident bundles.
func (sa *Sampler) SetFlight(f *flight.Recorder) { sa.flight = f }

// SetEPC attaches (or, with nil, detaches) the EPC pressure observatory
// whose snapshot each sample carries.  Sampling is the one place per
// tick that flushes the collector, so every rule and render sees one
// consistent snapshot per interval.
func (sa *Sampler) SetEPC(c *epcstat.Collector) { sa.epcCol = c }

// sub clamps counter deltas at zero so a registry swap or reset degrades
// to an empty interval instead of wrapping.
func sub(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return 0
}

// ratio returns num/den, or 0 on an empty denominator.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Sample takes one sample at the given time.
func (sa *Sampler) Sample(now time.Time) Sample {
	snap := sa.reg.Snapshot()
	c := snap.Counters
	s := Sample{
		Seq:  sa.seq,
		When: now,

		Requests:     c[telemetry.MetricHotCallRequests],
		Timeouts:     c[telemetry.MetricHotCallTimeouts],
		Fallbacks:    c[telemetry.MetricHotCallFallbacks],
		HotECalls:    c[telemetry.MetricHotECalls],
		HotOCalls:    c[telemetry.MetricHotOCalls],
		Polls:        c[telemetry.MetricResponderPolls],
		Executes:     c[telemetry.MetricResponderExecutes],
		SpinCycles:   c[telemetry.MetricSpinCycles],
		EPCFaults:    c[telemetry.MetricEPCFaults],
		EPCEvictions: c[telemetry.MetricEPCEvictions],
		MEEHits:      c[telemetry.MetricMEENodeHits],
		MEEMisses:    c[telemetry.MetricMEENodeMiss],

		EPCResident: snap.Gauges[telemetry.MetricEPCResident],

		PoolResponders:     snap.Gauges[telemetry.MetricPoolResponders],
		PoolRespondersMax:  snap.Gauges[telemetry.MetricPoolRespondersMax],
		PoolOccupancyMilli: snap.Gauges[telemetry.MetricPoolOccupancyMilli],
	}
	sa.flight.Digest() // nil-safe
	if sa.epcCol != nil {
		s.EPC = sa.epcCol.Snapshot() // flushes the live accounting
	}
	sa.seq++
	if !sa.hasPrev {
		sa.prev, sa.hasPrev = snap, true
		return s
	}
	p := sa.prev.Counters

	// Submissions: the runnable HotCall protocol counts every Call as a
	// request; the simulated-cycle Channel counts per-direction crossings
	// instead.  Whichever moved this interval is the submission stream.
	s.DSubmissions = sub(s.Requests, p[telemetry.MetricHotCallRequests])
	if s.DSubmissions == 0 {
		s.DSubmissions = sub(s.HotECalls, p[telemetry.MetricHotECalls]) +
			sub(s.HotOCalls, p[telemetry.MetricHotOCalls])
	}
	s.DTimeouts = sub(s.Timeouts, p[telemetry.MetricHotCallTimeouts])
	s.DFallbacks = sub(s.Fallbacks, p[telemetry.MetricHotCallFallbacks])
	s.DPolls = sub(s.Polls, p[telemetry.MetricResponderPolls])
	s.DExecutes = sub(s.Executes, p[telemetry.MetricResponderExecutes])
	s.DSpinCycles = sub(s.SpinCycles, p[telemetry.MetricSpinCycles])
	s.DEPCFaults = sub(s.EPCFaults, p[telemetry.MetricEPCFaults])
	s.DEPCEvicts = sub(s.EPCEvictions, p[telemetry.MetricEPCEvictions])

	// The request counter increments per Call/Submit attempt whether or
	// not submission succeeded, so the rates are per attempted call.
	s.TimeoutRate = ratio(s.DTimeouts, s.DSubmissions)
	s.FallbackRate = ratio(s.DFallbacks, s.DSubmissions)
	s.Occupancy = ratio(s.DExecutes, s.DPolls)
	dHits := sub(s.MEEHits, p[telemetry.MetricMEENodeHits])
	dMiss := sub(s.MEEMisses, p[telemetry.MetricMEENodeMiss])
	s.MEEHitRate = ratio(dHits, dHits+dMiss)

	lat := snap.Histograms[telemetry.MetricHotCallCycles].
		Sub(sa.prev.Histograms[telemetry.MetricHotCallCycles])
	s.LatencyCount = lat.Count
	if lat.Count > 0 {
		s.LatencyP50 = lat.Quantile(0.50)
		s.LatencyP95 = lat.Quantile(0.95)
		s.LatencyP99 = lat.Quantile(0.99)
	}
	sa.prev = snap
	return s
}
