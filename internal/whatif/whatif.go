// Package whatif is the counterfactual half of the observability stack:
// where internal/profile answers "where did the cycles go", this package
// answers "what would change if they went somewhere else".
//
// It has two instruments.  The causal profiler runs virtual-speedup
// experiments over a recorded workload (per-call cycle attributions from
// internal/profile's deep traces, or the synthetic generator in
// model.go): scale one component's cost — marshal, spin, MEE walk, EPC
// fault, handler, microcode — by ±δ, replay the workload, and report
// d(throughput)/d(component) per component and per callsite.  Because
// the simulated fabric is a serial cycle stream, the replay is exact,
// and the profile is cross-checked against the analytic cost model the
// simulation charges (TestCausalVsAnalytic) and against actually-applied
// cost-model changes (TestCausalAppliedModel, TestCausalAppliedSim) —
// the PR-2 cross-validation discipline extended to counterfactuals.
//
// The shadow call-router consumes the flight recorder's per-callsite
// stats (EWMA arrival rate, service quantiles, wasted-spin attribution)
// and scores, per callsite per interval, the predicted latency + spin
// budget of each routing policy — single-slot hot, pooled fabric, sync
// SDK ecall — WITHOUT changing any routing.  The difference between the
// declared static policy's predicted cost and the shadow-optimal one is
// the cycles-of-regret metric: how much the current configuration pays
// for not being adaptive.  This is the measurement side of the
// ROADMAP's "configless switchless calls": the adaptive dispatcher PR
// only has to act on a signal this package already validates under
// brute-force replay (replay.go, ≥95% ordering agreement).
//
// Surfaces: /debug/whatif (JSON/text/SVG via Handler), the
// routing-regret monitor rule (internal/monitor), incident-bundle
// attachment (internal/incident), Prometheus regret series
// (Observatory.WritePrometheus), and the hotbench -run whatif report.
package whatif

import (
	"hotcalls/internal/profile"
	"hotcalls/internal/telemetry"
)

// Call is one recorded call of a workload: its callsite label and the
// per-component cycle attribution the causal replay scales.
type Call struct {
	Site   string
	Cycles [profile.NumCategories]uint64
}

// Total returns the call's summed attributed cycles.
func (c Call) Total() uint64 {
	var t uint64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// Workload is a recorded stream of attributed calls — the replayable
// substrate of virtual-speedup experiments.
type Workload struct {
	Calls []Call
}

// TotalCycles returns the workload's summed cycles: the serial fabric's
// wall time, so throughput is len(Calls)/TotalCycles.
func (w Workload) TotalCycles() uint64 {
	var t uint64
	for _, c := range w.Calls {
		t += c.Total()
	}
	return t
}

// FromRecords adapts profile per-call records into a workload.
func FromRecords(recs []profile.CallRecord) Workload {
	w := Workload{Calls: make([]Call, len(recs))}
	for i, r := range recs {
		w.Calls[i] = Call{Site: r.Name, Cycles: r.Cycles}
	}
	return w
}

// FromEvents captures a workload from a deep-tracing event stream (the
// same stream internal/profile analyzes).
func FromEvents(events []telemetry.Event) Workload {
	return FromRecords(profile.CallRecords(events))
}
