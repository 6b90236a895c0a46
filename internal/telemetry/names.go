package telemetry

// Standard metric names used by the instrumented stack, one spelling for
// every layer (sgx, sdk, core, epc, mee).  Each has a row naming its
// reader in the consumer table (TestEverySignalHasAReader,
// internal/apps/porting): a name nothing reads is deleted, not added.
const (
	// Boundary-crossing counters.
	MetricEcalls           = "sdk_ecalls_total"
	MetricOcalls           = "sdk_ocalls_total"
	MetricHotECalls        = "hotcall_ecalls_total"
	MetricHotOCalls        = "hotcall_ocalls_total"
	MetricHotCallRequests  = "hotcall_requests_total"
	MetricHotCallTimeouts  = "hotcall_timeouts_total"
	MetricHotCallFallbacks = "hotcall_fallbacks_total"
	MetricHotCallInline    = "hotcall_inline_total"   // fabric calls the requester ran itself, the responders being parked
	MetricHotCallRejected  = "hotcall_rejected_total" // scatter-gather calls refused at dispatch: a descriptor outside the requester's ring

	// Leaf-instruction counters.
	MetricEEnter = "sgx_eenter_total"
	MetricEExit  = "sgx_eexit_total"
	MetricResume = "sgx_eresume_total"
	MetricAEX    = "sgx_aex_total"

	// Paging and MEE counters.
	MetricEPCFaults    = "epc_faults_total"    // ELDU: trap + decrypt + verify + install
	MetricEPCEvictions = "epc_evictions_total" // EWB: encrypt + MAC + write-out
	MetricMEENodeHits  = "mee_node_cache_hits_total"
	MetricMEENodeMiss  = "mee_node_cache_misses_total"

	// Responder busy-wait economics (Section 4.2, "Maximizing
	// utilization"): every poll burns cycles on the dedicated core;
	// polls that found no work are the spin waste the monitor budgets.
	MetricResponderPolls    = "hotcall_responder_polls_total"
	MetricResponderExecutes = "hotcall_responder_executes_total"
	MetricResponderKicks    = "hotcall_responder_kicks_total" // deferred wakes sent by requesters after running calls inline
	MetricSpinCycles        = "hotcall_spin_cycles_total"

	// Cycle-latency histogram of the simulated HotCall channel.
	MetricHotCallCycles = "hotcall_cycles"

	// Adaptive responder-pool fabric (Section 4.2's multi-requester
	// story): pool size and occupancy, exported so the monitor can flag
	// a saturated pool.
	MetricPoolResponders     = "hotcall_pool_responders"      // live responder goroutines
	MetricPoolRespondersMax  = "hotcall_pool_responders_max"  // adaptive ceiling
	MetricPoolOccupancyMilli = "hotcall_pool_occupancy_milli" // window occupancy, thousandths

	// Point-in-time gauges.
	MetricEPCResident = "epc_resident_pages" // pages currently in the EPC
)

// standardCounters and standardHistograms are the names RegisterStandard
// pre-creates.
var standardCounters = []string{
	MetricEcalls, MetricOcalls, MetricHotECalls, MetricHotOCalls,
	MetricHotCallRequests, MetricHotCallTimeouts, MetricHotCallFallbacks, MetricHotCallInline, MetricHotCallRejected,
	MetricEEnter, MetricEExit, MetricResume, MetricAEX,
	MetricEPCFaults, MetricEPCEvictions,
	MetricMEENodeHits, MetricMEENodeMiss,
	MetricResponderPolls, MetricResponderExecutes, MetricResponderKicks,
	MetricSpinCycles,
}

var standardHistograms = []string{MetricHotCallCycles}

var standardGauges = []string{
	MetricEPCResident,
	MetricPoolResponders, MetricPoolRespondersMax, MetricPoolOccupancyMilli,
}

// RegisterStandard pre-creates the standard boundary metrics so exports
// always include the full set (at zero when untouched).  Safe on nil.
func RegisterStandard(r *Registry) {
	for _, name := range standardCounters {
		r.Counter(name)
	}
	for _, name := range standardHistograms {
		r.Histogram(name)
	}
	for _, name := range standardGauges {
		r.Gauge(name)
	}
}
