package monitor

import (
	"fmt"
	"time"

	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
)

// Severity grades an event: Info is context, Warning is degradation that
// deserves a look, Critical is an SLO-relevant failure mode in progress.
type Severity int

const (
	Info Severity = iota
	Warning
	Critical
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// Event is one structured finding from a rule evaluation: which rule, how
// bad, the triggering value against its threshold, and a human-readable
// diagnosis that names the likely cause and the fix.
type Event struct {
	Rule      string    `json:"rule"`
	Severity  Severity  `json:"severity"`
	Seq       int       `json:"seq"` // sample the event fired on
	At        time.Time `json:"at"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Diagnosis string    `json:"diagnosis"`
}

// Rule evaluates a window of samples (oldest first, newest last) and
// returns zero or more events anchored on the newest sample.
type Rule interface {
	Name() string
	Evaluate(window []Sample) []Event
}

// Thresholds collects every default-rule knob in one place so callers
// can tune a single struct instead of assembling rules by hand.
type Thresholds struct {
	// Fallback storm (responder asleep/overloaded).
	StormMinAttempts uint64  // ignore intervals with fewer submission attempts
	StormWarnRate    float64 // timeout-or-fallback fraction → Warning
	StormCritRate    float64 // → Critical

	// Spin-waste budget (the dedicated polling core's economics).
	SpinMinPolls      uint64  // ignore intervals with fewer polls
	SpinWarnOccupancy float64 // occupancy below this → Warning
	SpinCritOccupancy float64 // → Critical
	SpinPerCallBudget float64 // simulated sync cycles per HotCall → Warning

	// Latency SLO burn rate (multiwindow).
	SLOObjectiveP99 uint64  // interval p99 objective in cycles
	SLOMinCount     uint64  // min latency observations for an interval to count
	SLOFastWindow   int     // samples in the fast window
	SLOSlowWindow   int     // samples in the slow window
	SLOFastBurn     float64 // breaching fraction of the fast window
	SLOSlowBurn     float64 // breaching fraction of the slow window

	// EPC thrash.
	EPCWarnEvictions uint64 // interval evictions → Warning
	EPCCritEvictions uint64 // → Critical

	// EPC oversubscription early warning (epcstat collector attached).
	EPCOversubWarnFrac float64 // summed WSS / capacity → Warning
	EPCOversubCritFrac float64 // → Critical
	EPCOversubMinPages uint64  // ignore estimates below this WSS

	// EPC victim interference (epcstat collector attached).
	EPCInterfMinEvicts   uint64  // ignore intervals with fewer total evictions
	EPCInterfVictimShare float64 // owner's share of interval evictions
	EPCInterfCauseRatio  float64 // fraction of its evictions caused by others

	// Responder-pool saturation (the adaptive fabric's ceiling).
	PoolSatOccupancy float64 // window occupancy at max responders → Warning

	// Callsite-scoped rules (flight recorder attached).
	CallsiteMinCalls     uint64  // ignore callsites with fewer interval arrivals
	CallsiteWastePolls   float64 // attributed wasted polls per interval → Warning
	CallsiteWasteMaxRate float64 // only callsites at or below this EWMA rate are charged
}

// DefaultThresholds returns the stock tuning.  The latency objective is
// ~3.3x the paper's 620-cycle HotCall median: comfortably above healthy
// jitter, far below the ~8,600-cycle fallback ecall that a storm mixes
// into the distribution.
func DefaultThresholds() Thresholds {
	return Thresholds{
		StormMinAttempts: 10,
		StormWarnRate:    0.05,
		StormCritRate:    0.25,

		SpinMinPolls:      1000,
		SpinWarnOccupancy: 0.01,
		SpinCritOccupancy: 0.001,
		SpinPerCallBudget: 2048,

		SLOObjectiveP99: 2048,
		SLOMinCount:     8,
		SLOFastWindow:   3,
		SLOSlowWindow:   12,
		SLOFastBurn:     0.67,
		SLOSlowBurn:     0.25,

		EPCWarnEvictions: 256,
		EPCCritEvictions: 4096,

		EPCOversubWarnFrac: 0.85,
		EPCOversubCritFrac: 1.0,
		EPCOversubMinPages: 64,

		EPCInterfMinEvicts:   64,
		EPCInterfVictimShare: 0.5,
		EPCInterfCauseRatio:  0.75,

		PoolSatOccupancy: 0.5, // the controller's default scale-up watermark

		CallsiteMinCalls:     10,
		CallsiteWastePolls:   1000,
		CallsiteWasteMaxRate: 1,
	}
}

// DefaultRules returns the standard rule set under the given thresholds.
func DefaultRules(t Thresholds) []Rule {
	return []Rule{
		&FallbackStormRule{T: t},
		&SpinWasteRule{T: t},
		&LatencySLORule{T: t},
		&EPCThrashRule{T: t},
		&PoolSaturationRule{T: t},
	}
}

// EPCRules returns the EPC-scoped rule set — the oversubscription early
// warning and the victim-interference attribution rule, both reading the
// epcstat snapshot that Options.EPC embeds in every sample.  They are
// appended to DefaultRules automatically when a collector is attached
// and Options.Rules is nil.
func EPCRules(t Thresholds) []Rule {
	return []Rule{
		&EPCOversubscriptionRule{T: t},
		&EPCVictimInterferenceRule{T: t},
	}
}

// FlightRules returns the callsite-scoped rule set — the per-callsite
// variants of the fallback-storm and spin-waste rules, reading the
// flight recorder's stats table that Options.Flight embeds in every
// sample.  They are appended to DefaultRules automatically when a
// recorder is attached and Options.Rules is nil.
func FlightRules(t Thresholds) []Rule {
	return []Rule{
		&CallsiteStormRule{T: t},
		&CallsiteSpinWasteRule{T: t},
	}
}

// newest returns the last sample of the window, or nil on an empty one.
func newest(window []Sample) *Sample {
	if len(window) == 0 {
		return nil
	}
	return &window[len(window)-1]
}

// FallbackStormRule detects the paper's explicit operational hazard
// (Section 4.2, "Preventing starvation"): when the responder is stuck in
// a handler or overloaded, requesters exhaust their submission attempts and every
// timed-out HotCall degrades into a regular SDK call — a 13-27x latency
// cliff that a raw throughput graph hides until saturation.
type FallbackStormRule struct{ T Thresholds }

// Name implements Rule.
func (r *FallbackStormRule) Name() string { return "fallback-storm" }

// Evaluate implements Rule.
func (r *FallbackStormRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil {
		return nil
	}
	attempts := s.DSubmissions
	if attempts < r.T.StormMinAttempts {
		return nil
	}
	rate := s.TimeoutRate
	if s.FallbackRate > rate {
		rate = s.FallbackRate
	}
	if rate < r.T.StormWarnRate {
		return nil
	}
	sev, threshold := Warning, r.T.StormWarnRate
	if rate >= r.T.StormCritRate {
		sev, threshold = Critical, r.T.StormCritRate
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: rate, Threshold: threshold,
		Diagnosis: fmt.Sprintf(
			"responder asleep or overloaded: %.1f%% of HotCall submission attempts timed out "+
				"(%d timeouts, %d fallbacks / %d attempts this interval); each fallback trades a "+
				"~620-cycle HotCall for a ~8,600-cycle SDK ecall — a requester's window stayed "+
				"full: look for a handler that blocks or a responder core that is oversubscribed, "+
				"deepen SlotsPerShard if bursts outrun a healthy responder, and keep "+
				"CallOrFallback on the paths that must not fail",
			rate*100, s.DTimeouts, s.DFallbacks, attempts),
	}}
}

// SpinWasteRule budgets the price of the paper's core-for-latency trade
// (Section 4.2, "Maximizing utilization"): the dedicated responder core
// burns cycles on every empty poll, and an occupancy collapse means the
// burned core is buying nothing.  It also watches the simulated-channel
// per-call synchronization cycles against a budget — a slow responder
// pickup inflates every requester's observed latency.
type SpinWasteRule struct{ T Thresholds }

// Name implements Rule.
func (r *SpinWasteRule) Name() string { return "spin-waste" }

// Evaluate implements Rule.
func (r *SpinWasteRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil {
		return nil
	}
	var events []Event
	if s.DPolls >= r.T.SpinMinPolls && s.Occupancy < r.T.SpinWarnOccupancy {
		sev, threshold := Warning, r.T.SpinWarnOccupancy
		if s.Occupancy < r.T.SpinCritOccupancy {
			sev, threshold = Critical, r.T.SpinCritOccupancy
		}
		wasted := s.DPolls - s.DExecutes
		events = append(events, Event{
			Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
			Value: s.Occupancy, Threshold: threshold,
			Diagnosis: fmt.Sprintf(
				"responder occupancy %.4f: %d of %d polls found no work this interval; the "+
					"idle ladder already parks a responder that finds nothing, so these are "+
					"responders awake for too little work — lower MaxResponders, or share the "+
					"fabric across more requesters",
				s.Occupancy, wasted, s.DPolls),
		})
	}
	if s.DSubmissions > 0 && s.DSpinCycles > 0 {
		perCall := float64(s.DSpinCycles) / float64(s.DSubmissions)
		if perCall > r.T.SpinPerCallBudget {
			events = append(events, Event{
				Rule: r.Name(), Severity: Warning, Seq: s.Seq, At: s.When,
				Value: perCall, Threshold: r.T.SpinPerCallBudget,
				Diagnosis: fmt.Sprintf(
					"HotCall synchronization averaged %.0f cycles/call this interval (budget %.0f): "+
						"requesters are spinning long on submission or completion — the responder is "+
						"slow to pick up work, likely preempted or servicing too many channels",
					perCall, r.T.SpinPerCallBudget),
			})
		}
	}
	return events
}

// LatencySLORule is a multiwindow burn-rate alert on the HotCall
// interval p99: an interval "burns" when its p99 exceeds the objective.
// Requiring both a fast window (catches an active regression quickly)
// and a slow window (suppresses one-interval blips) to burn is the
// standard fast/slow SLO construction.
type LatencySLORule struct{ T Thresholds }

// Name implements Rule.
func (r *LatencySLORule) Name() string { return "latency-slo" }

// burning reports whether a sample is eligible and its interpolated p99
// breaches SLOObjectiveP99.
func (r *LatencySLORule) burning(s Sample) (eligible, breach bool) {
	if s.LatencyCount < r.T.SLOMinCount {
		return false, false
	}
	return true, s.LatencyP99 > r.T.SLOObjectiveP99
}

// burnRate returns the breaching fraction over the last n samples of the
// window, counting only eligible samples.
func (r *LatencySLORule) burnRate(window []Sample, n int) (rate float64, eligible int) {
	start := len(window) - n
	if start < 0 {
		start = 0
	}
	var breaches int
	for _, s := range window[start:] {
		ok, breach := r.burning(s)
		if !ok {
			continue
		}
		eligible++
		if breach {
			breaches++
		}
	}
	if eligible == 0 {
		return 0, 0
	}
	return float64(breaches) / float64(eligible), eligible
}

// Evaluate implements Rule.
func (r *LatencySLORule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil {
		return nil
	}
	fast, fastN := r.burnRate(window, r.T.SLOFastWindow)
	slow, _ := r.burnRate(window, r.T.SLOSlowWindow)
	if fastN == 0 || fast < r.T.SLOFastBurn {
		return nil
	}
	sev := Warning
	if slow >= r.T.SLOSlowBurn {
		sev = Critical
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: float64(s.LatencyP99), Threshold: float64(r.T.SLOObjectiveP99),
		Diagnosis: fmt.Sprintf(
			"HotCall p99 %d cycles over the %d-cycle objective; burn rate %.0f%% fast / %.0f%% slow "+
				"window — sustained tail regression, not a blip (look for fallback storms, EPC "+
				"thrash, or a preempted responder in the same windows)",
			s.LatencyP99, r.T.SLOObjectiveP99, fast*100, slow*100),
	}}
}

// PoolSaturationRule watches the adaptive responder pool's ceiling: the
// controller grows the pool while occupancy stays above its watermark,
// so a pool sitting *at* MaxResponders with occupancy still above the
// watermark has no headroom left — demand outruns the configured core
// budget, and the next step is submission timeouts degrading calls onto
// the SDK-fallback cliff.  Timeouts in the same interval escalate the
// event to Critical because that cliff is already being paid.
type PoolSaturationRule struct{ T Thresholds }

// Name implements Rule.
func (r *PoolSaturationRule) Name() string { return "pool-saturation" }

// Evaluate implements Rule.
func (r *PoolSaturationRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.PoolRespondersMax == 0 {
		return nil // no fabric attached to this registry
	}
	if s.PoolResponders < s.PoolRespondersMax {
		return nil // headroom remains; the controller can still grow
	}
	occ := float64(s.PoolOccupancyMilli) / 1000
	if occ < r.T.PoolSatOccupancy {
		return nil
	}
	sev := Warning
	if s.DTimeouts > 0 {
		sev = Critical
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: occ, Threshold: r.T.PoolSatOccupancy,
		Diagnosis: fmt.Sprintf(
			"responder pool saturated: %d/%d responders live with window occupancy %.2f still "+
				"over the %.2f scale-up watermark (%d timeouts this interval); the adaptive "+
				"controller has no headroom left — raise MaxResponders (more polling cores), "+
				"widen requester windows, or shed load before submissions start falling back "+
				"to SDK calls",
			s.PoolResponders, s.PoolRespondersMax, occ, r.T.PoolSatOccupancy, s.DTimeouts),
	}}
}

// EPCThrashRule alarms on paging storms: every eviction is an EWB
// (encrypt + MAC + write-out) and every re-touch an ELDU, the ~40,000x
// memory-access cliff of the paper's Section 6.3 libquantum discussion.
// A sustained eviction rate means the working set has outgrown the EPC.
type EPCThrashRule struct{ T Thresholds }

// Name implements Rule.
func (r *EPCThrashRule) Name() string { return "epc-thrash" }

// Evaluate implements Rule.
func (r *EPCThrashRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.DEPCEvicts < r.T.EPCWarnEvictions {
		return nil
	}
	sev, threshold := Warning, r.T.EPCWarnEvictions
	if s.DEPCEvicts >= r.T.EPCCritEvictions {
		sev, threshold = Critical, r.T.EPCCritEvictions
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: float64(s.DEPCEvicts), Threshold: float64(threshold),
		Diagnosis: fmt.Sprintf(
			"EPC thrash: %d evictions (%d faults) this interval with %d pages resident; the "+
				"enclave working set has outgrown the EPC, so every spill pays EWB+ELDU "+
				"sealing — shrink the secure heap or shard the workload across enclaves",
			s.DEPCEvicts, s.DEPCFaults, s.EPCResident),
	}}
}

// prevEPC returns the previous sample's EPC snapshot, or nil when the
// window has no previous sample (or no collector was attached then).
func prevEPC(window []Sample) *epcstat.Snapshot {
	if len(window) < 2 {
		return nil
	}
	return window[len(window)-2].EPC
}

// epcOwnerName formats an owner for diagnoses: the label when one was
// registered, the raw ID otherwise.
func epcOwnerName(owner epc.OwnerID, label string) string {
	if label != "" {
		return fmt.Sprintf("%s(#%d)", label, owner)
	}
	return fmt.Sprintf("#%d", owner)
}

// EPCOversubscriptionRule is the early warning EPCThrashRule cannot give:
// thrash fires on the eviction storm already in progress, while this rule
// compares the observatory's summed per-owner working-set estimates
// against EPC capacity and fires while the working set is still *growing
// toward* the cliff — pages are being faulted in but nothing is being
// evicted yet, so there is still time to shed load or shrink heaps
// before every access starts paying EWB+ELDU.  Fires on the newest
// sample's snapshot (WSS is an at-time estimate, not an interval delta).
type EPCOversubscriptionRule struct{ T Thresholds }

// Name implements Rule.
func (r *EPCOversubscriptionRule) Name() string { return "epc-oversubscription" }

// Evaluate implements Rule.
func (r *EPCOversubscriptionRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.EPC == nil || s.EPC.CapacityPages == 0 {
		return nil
	}
	wss := s.EPC.WSSPages
	if wss < r.T.EPCOversubMinPages {
		return nil
	}
	frac := float64(wss) / float64(s.EPC.CapacityPages)
	if frac < r.T.EPCOversubWarnFrac {
		return nil
	}
	sev, threshold := Warning, r.T.EPCOversubWarnFrac
	if frac >= r.T.EPCOversubCritFrac {
		sev, threshold = Critical, r.T.EPCOversubCritFrac
	}
	top := ""
	var topWSS uint64
	for _, o := range s.EPC.Owners {
		if o.WSSPages > topWSS {
			topWSS = o.WSSPages
			top = epcOwnerName(o.Owner, o.Label)
		}
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: frac, Threshold: threshold,
		Diagnosis: fmt.Sprintf(
			"EPC oversubscription imminent: summed working-set estimate %d pages is %.0f%% of the "+
				"%d-page EPC (largest owner %s at ~%d pages); once the working set crosses capacity "+
				"every access degrades to a ~%d-cycle fault — shed tenants, shrink secure heaps, or "+
				"shard across enclaves *now*, before the eviction storm",
			wss, frac*100, s.EPC.CapacityPages, top, topWSS, epc.FaultCost+epc.EWBCost),
	}}
}

// EPCVictimInterferenceRule attributes paging pain: an owner whose pages
// dominate the interval's evictions, mostly forced out by *other*
// owners' faults, is being starved of EPC residency by its neighbours —
// the noisy-neighbour signal the ROADMAP's EPC-aware placement policy
// needs.  It diffs consecutive samples' interference matrices, so it
// fires only with an epcstat collector attached (Options.EPC).
type EPCVictimInterferenceRule struct{ T Thresholds }

// Name implements Rule.
func (r *EPCVictimInterferenceRule) Name() string { return "epc-victim-interference" }

// Evaluate implements Rule.
func (r *EPCVictimInterferenceRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.EPC == nil {
		return nil
	}
	d := s.EPC.Sub(prevEPC(window))
	if d.Evictions < r.T.EPCInterfMinEvicts {
		return nil
	}
	// Interval evictions of each victim forced by other owners' faults,
	// and the single worst culprit per victim for the diagnosis.
	labels := map[epc.OwnerID]string{}
	for _, o := range d.Owners {
		labels[o.Owner] = o.Label
	}
	byOthers := map[epc.OwnerID]uint64{}
	topCulprit := map[epc.OwnerID]epc.OwnerID{}
	topCount := map[epc.OwnerID]uint64{}
	for _, cell := range d.Interference {
		if cell.Culprit == cell.Victim {
			continue
		}
		byOthers[cell.Victim] += cell.Evictions
		if cell.Evictions > topCount[cell.Victim] {
			topCount[cell.Victim] = cell.Evictions
			topCulprit[cell.Victim] = cell.Culprit
		}
	}
	var events []Event
	for _, o := range d.Owners {
		if o.Evictions == 0 {
			continue
		}
		share := float64(o.Evictions) / float64(d.Evictions)
		caused := float64(byOthers[o.Owner]) / float64(o.Evictions)
		if share < r.T.EPCInterfVictimShare || caused < r.T.EPCInterfCauseRatio {
			continue
		}
		culprit := topCulprit[o.Owner]
		events = append(events, Event{
			Rule: r.Name(), Severity: Warning, Seq: s.Seq, At: s.When,
			Value: caused, Threshold: r.T.EPCInterfCauseRatio,
			Diagnosis: fmt.Sprintf(
				"owner %s is the EPC victim: %d of the interval's %d evictions hit its pages "+
					"(%.0f%% share) and %.0f%% of those were forced by other owners' faults, "+
					"chiefly %s (%d evictions) — a noisy neighbour is evicting its working set; "+
					"throttle the culprit or reserve residency for the victim",
				epcOwnerName(o.Owner, o.Label), o.Evictions, d.Evictions,
				share*100, caused*100, epcOwnerName(culprit, labels[culprit]), topCount[o.Owner]),
		})
	}
	return events
}

// prevCallsites indexes the previous sample's callsite rows by ID so
// the callsite rules can diff cumulative counters into interval
// deltas.  Returns nil when the window has no previous sample.
func prevCallsites(window []Sample) map[int]flight.CallsiteStats {
	if len(window) < 2 {
		return nil
	}
	prev := window[len(window)-2].Callsites
	if len(prev) == 0 {
		return nil
	}
	out := make(map[int]flight.CallsiteStats, len(prev))
	for _, cs := range prev {
		out[cs.ID] = cs
	}
	return out
}

// CallsiteStormRule is the callsite-scoped FallbackStormRule: the
// global rule says *that* HotCalls are degrading onto the SDK-fallback
// cliff, this one says *which callsite* is doing the degrading — the
// attribution the configless dispatcher needs to demote exactly the
// offending call path instead of the whole fabric.  It diffs
// consecutive samples' flight stats tables, so it fires only with a
// flight recorder attached (Options.Flight).
type CallsiteStormRule struct{ T Thresholds }

// Name implements Rule.
func (r *CallsiteStormRule) Name() string { return "callsite-storm" }

// Evaluate implements Rule.
func (r *CallsiteStormRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || len(s.Callsites) == 0 {
		return nil
	}
	prev := prevCallsites(window)
	var events []Event
	for _, cs := range s.Callsites {
		p := prev[cs.ID] // zero row for a callsite's first interval
		dArr := sub(cs.Arrivals, p.Arrivals)
		if dArr < r.T.CallsiteMinCalls {
			continue
		}
		dTo := sub(cs.Timeouts, p.Timeouts)
		dFb := sub(cs.Fallbacks, p.Fallbacks)
		worst := dTo
		if dFb > worst {
			worst = dFb
		}
		rate := float64(worst) / float64(dArr)
		if rate < r.T.StormWarnRate {
			continue
		}
		sev, threshold := Warning, r.T.StormWarnRate
		if rate >= r.T.StormCritRate {
			sev, threshold = Critical, r.T.StormCritRate
		}
		events = append(events, Event{
			Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
			Value: rate, Threshold: threshold,
			Diagnosis: fmt.Sprintf(
				"callsite %q is storming: %.1f%% of its submission attempts degraded this interval "+
					"(%d timeouts, %d fallbacks / %d attempts; last sampled trace 0x%x) — this call "+
					"path, not the whole fabric, is filling its requester's window faster than "+
					"the responders drain it; give the pool a deeper SlotsPerShard window",
				cs.Name, rate*100, dTo, dFb, dArr, cs.LastTraceID),
		})
	}
	return events
}

// CallsiteSpinWasteRule is the callsite-scoped SpinWasteRule: the
// global rule prices the dedicated polling core's idle budget, this one
// names the callsite being charged for it.  The flight recorder
// attributes each digest window's empty polls across callsites by
// inverse EWMA arrival rate, so a rare callsite that keeps a spinning
// responder alive accumulates attributed waste fast — the "SGX
// Switchless Calls Made Configless" demotion signal.  Fires on
// callsites whose attributed waste grew past the interval budget while
// their arrival rate sits at or below CallsiteWasteMaxRate.
type CallsiteSpinWasteRule struct{ T Thresholds }

// Name implements Rule.
func (r *CallsiteSpinWasteRule) Name() string { return "callsite-spin-waste" }

// Evaluate implements Rule.
func (r *CallsiteSpinWasteRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || len(s.Callsites) == 0 {
		return nil
	}
	prev := prevCallsites(window)
	var events []Event
	for _, cs := range s.Callsites {
		dWaste := cs.WastedSpin - prev[cs.ID].WastedSpin
		if dWaste < r.T.CallsiteWastePolls || cs.RateEWMA > r.T.CallsiteWasteMaxRate {
			continue
		}
		events = append(events, Event{
			Rule: r.Name(), Severity: Warning, Seq: s.Seq, At: s.When,
			Value: dWaste, Threshold: r.T.CallsiteWastePolls,
			Diagnosis: fmt.Sprintf(
				"callsite %q was charged %.0f wasted responder polls this interval at only "+
					"%.2f calls/s — a rare call path keeping a spinning responder alive; it, not "+
					"the busy callsites sharing its fabric, is the one to take off the fabric: "+
					"issue it with CallOrFallback or as a plain SDK call",
				cs.Name, dWaste, cs.RateEWMA),
		})
	}
	return events
}
