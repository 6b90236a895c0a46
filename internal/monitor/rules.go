package monitor

import (
	"fmt"
	"time"

	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
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

// The rules' thresholds.  The latency objective is ~3.3x the paper's
// 620-cycle HotCall median: comfortably above healthy jitter, far below
// the ~8,600-cycle fallback ecall that a storm mixes into the
// distribution.
const (
	// Fallback storm (responder asleep/overloaded).
	stormMinAttempts uint64 = 10   // ignore intervals with fewer submission attempts
	stormWarnRate           = 0.05 // timeout-or-fallback fraction → Warning
	stormCritRate           = 0.25 // → Critical

	// Spin-waste budget (the dedicated polling core's economics).
	spinMinPolls      uint64  = 1000  // ignore intervals with fewer polls
	spinWarnOccupancy         = 0.01  // occupancy below this → Warning
	spinCritOccupancy         = 0.001 // → Critical
	spinPerCallBudget float64 = 2048  // simulated sync cycles per HotCall → Warning

	// Latency SLO burn rate (multiwindow).
	sloObjectiveP99 uint64 = 2048 // interval p99 objective in cycles
	sloMinCount     uint64 = 8    // min latency observations for an interval to count
	sloFastWindow          = 3    // samples in the fast window
	sloSlowWindow          = 12   // samples in the slow window
	sloFastBurn            = 0.67 // breaching fraction of the fast window
	sloSlowBurn            = 0.25 // breaching fraction of the slow window

	// EPC thrash.
	epcWarnEvictions uint64 = 256  // interval evictions → Warning
	epcCritEvictions uint64 = 4096 // → Critical

	// EPC oversubscription early warning (epcstat collector attached).
	epcOversubWarnFrac        = 0.85 // summed WSS / capacity → Warning
	epcOversubCritFrac        = 1.0  // → Critical
	epcOversubMinPages uint64 = 64   // ignore estimates below this WSS

	// EPC victim interference (epcstat collector attached).
	epcInterfMinEvicts   uint64 = 64   // ignore intervals with fewer total evictions
	epcInterfVictimShare        = 0.5  // owner's share of interval evictions
	epcInterfCauseRatio         = 0.75 // fraction of its evictions caused by others

	// Responder-pool saturation (the adaptive fabric's ceiling): window
	// occupancy at max responders → Warning, at the controller's
	// scale-up watermark.
	poolSatOccupancy = 0.5
)

// DefaultRules returns the standard rule set.
func DefaultRules() []Rule {
	return []Rule{
		&FallbackStormRule{},
		&SpinWasteRule{},
		&LatencySLORule{},
		&EPCThrashRule{},
		&PoolSaturationRule{},
	}
}

// EPCRules returns the EPC-scoped rule set — the oversubscription early
// warning and the victim-interference attribution rule, both reading the
// epcstat snapshot that Options.EPC embeds in every sample.  They are
// appended to DefaultRules automatically when a collector is attached
// and Options.Rules is nil.
func EPCRules() []Rule {
	return []Rule{
		&EPCOversubscriptionRule{},
		&EPCVictimInterferenceRule{},
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
type FallbackStormRule struct{}

// Name implements Rule.
func (r *FallbackStormRule) Name() string { return "fallback-storm" }

// Evaluate implements Rule.
func (r *FallbackStormRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil {
		return nil
	}
	attempts := s.DSubmissions
	if attempts < stormMinAttempts {
		return nil
	}
	rate := s.TimeoutRate
	if s.FallbackRate > rate {
		rate = s.FallbackRate
	}
	if rate < stormWarnRate {
		return nil
	}
	sev, threshold := Warning, stormWarnRate
	if rate >= stormCritRate {
		sev, threshold = Critical, stormCritRate
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
// pickup inflates every requester's observed latency.  Clocks: the
// occupancy half reads the fabric's poll and execute counts; the
// cycle-budget half reads hotcall_spin_cycles_total, which only the
// simulated core.Channel writes, so on a port armed through Fabric.Arm
// it never becomes eligible.
type SpinWasteRule struct{}

// Name implements Rule.
func (r *SpinWasteRule) Name() string { return "spin-waste" }

// Evaluate implements Rule.
func (r *SpinWasteRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil {
		return nil
	}
	var events []Event
	if s.DPolls >= spinMinPolls && s.Occupancy < spinWarnOccupancy {
		sev, threshold := Warning, spinWarnOccupancy
		if s.Occupancy < spinCritOccupancy {
			sev, threshold = Critical, spinCritOccupancy
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
		if perCall > spinPerCallBudget {
			events = append(events, Event{
				Rule: r.Name(), Severity: Warning, Seq: s.Seq, At: s.When,
				Value: perCall, Threshold: spinPerCallBudget,
				Diagnosis: fmt.Sprintf(
					"HotCall synchronization averaged %.0f cycles/call this interval (budget %.0f): "+
						"requesters are spinning long on submission or completion — the responder is "+
						"slow to pick up work, likely preempted or servicing too many channels",
					perCall, spinPerCallBudget),
			})
		}
	}
	return events
}

// LatencySLORule is a multiwindow burn-rate alert on the HotCall
// interval p99: an interval "burns" when its p99 exceeds the objective.
// Requiring both a fast window (catches an active regression quickly)
// and a slow window (suppresses one-interval blips) to burn is the
// standard fast/slow SLO construction.  Clock: it reads hotcall_cycles,
// which only the simulated core.Channel writes, so on a port armed
// through Fabric.Arm no interval is ever eligible.
type LatencySLORule struct{}

// Name implements Rule.
func (r *LatencySLORule) Name() string { return "latency-slo" }

// burning reports whether a sample is eligible and its interpolated p99
// breaches sloObjectiveP99.
func (r *LatencySLORule) burning(s Sample) (eligible, breach bool) {
	if s.LatencyCount < sloMinCount {
		return false, false
	}
	return true, s.LatencyP99 > sloObjectiveP99
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
	fast, fastN := r.burnRate(window, sloFastWindow)
	slow, _ := r.burnRate(window, sloSlowWindow)
	if fastN == 0 || fast < sloFastBurn {
		return nil
	}
	sev := Warning
	if slow >= sloSlowBurn {
		sev = Critical
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: float64(s.LatencyP99), Threshold: float64(sloObjectiveP99),
		Diagnosis: fmt.Sprintf(
			"HotCall p99 %d cycles over the %d-cycle objective; burn rate %.0f%% fast / %.0f%% slow "+
				"window — sustained tail regression, not a blip (look for fallback storms, EPC "+
				"thrash, or a preempted responder in the same windows)",
			s.LatencyP99, sloObjectiveP99, fast*100, slow*100),
	}}
}

// PoolSaturationRule watches the adaptive responder pool's ceiling: the
// controller grows the pool while occupancy stays above its watermark,
// so a pool sitting *at* MaxResponders with occupancy still above the
// watermark has no headroom left — demand outruns the configured core
// budget, and the next step is submission timeouts degrading calls onto
// the SDK-fallback cliff.  Timeouts in the same interval escalate the
// event to Critical because that cliff is already being paid.
type PoolSaturationRule struct{}

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
	if occ < poolSatOccupancy {
		return nil
	}
	sev := Warning
	if s.DTimeouts > 0 {
		sev = Critical
	}
	return []Event{{
		Rule: r.Name(), Severity: sev, Seq: s.Seq, At: s.When,
		Value: occ, Threshold: poolSatOccupancy,
		Diagnosis: fmt.Sprintf(
			"responder pool saturated: %d/%d responders live with window occupancy %.2f still "+
				"over the %.2f scale-up watermark (%d timeouts this interval); the adaptive "+
				"controller has no headroom left — raise MaxResponders (more polling cores), "+
				"widen requester windows, or shed load before submissions start falling back "+
				"to SDK calls",
			s.PoolResponders, s.PoolRespondersMax, occ, poolSatOccupancy, s.DTimeouts),
	}}
}

// EPCThrashRule alarms on paging storms: every eviction is an EWB
// (encrypt + MAC + write-out) and every re-touch an ELDU, the ~40,000x
// memory-access cliff of the paper's Section 6.3 libquantum discussion.
// A sustained eviction rate means the working set has outgrown the EPC.
type EPCThrashRule struct{}

// Name implements Rule.
func (r *EPCThrashRule) Name() string { return "epc-thrash" }

// Evaluate implements Rule.
func (r *EPCThrashRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.DEPCEvicts < epcWarnEvictions {
		return nil
	}
	sev, threshold := Warning, epcWarnEvictions
	if s.DEPCEvicts >= epcCritEvictions {
		sev, threshold = Critical, epcCritEvictions
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
type EPCOversubscriptionRule struct{}

// Name implements Rule.
func (r *EPCOversubscriptionRule) Name() string { return "epc-oversubscription" }

// Evaluate implements Rule.
func (r *EPCOversubscriptionRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.EPC == nil || s.EPC.CapacityPages == 0 {
		return nil
	}
	wss := s.EPC.WSSPages
	if wss < epcOversubMinPages {
		return nil
	}
	frac := float64(wss) / float64(s.EPC.CapacityPages)
	if frac < epcOversubWarnFrac {
		return nil
	}
	sev, threshold := Warning, epcOversubWarnFrac
	if frac >= epcOversubCritFrac {
		sev, threshold = Critical, epcOversubCritFrac
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
type EPCVictimInterferenceRule struct{}

// Name implements Rule.
func (r *EPCVictimInterferenceRule) Name() string { return "epc-victim-interference" }

// Evaluate implements Rule.
func (r *EPCVictimInterferenceRule) Evaluate(window []Sample) []Event {
	s := newest(window)
	if s == nil || s.EPC == nil {
		return nil
	}
	d := s.EPC.Sub(prevEPC(window))
	if d.Evictions < epcInterfMinEvicts {
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
		if share < epcInterfVictimShare || caused < epcInterfCauseRatio {
			continue
		}
		culprit := topCulprit[o.Owner]
		events = append(events, Event{
			Rule: r.Name(), Severity: Warning, Seq: s.Seq, At: s.When,
			Value: caused, Threshold: epcInterfCauseRatio,
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
