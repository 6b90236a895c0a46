package telemetry

// Standard metric names used by the instrumented stack, one spelling for
// every layer (sgx, sdk, core).  Each has a row naming its reader in the
// consumer table (TestEverySignalHasAReader, internal/apps/porting): a
// name nothing reads is deleted, not added.
const (
	// Boundary-crossing counters.
	MetricEcalls          = "sdk_ecalls_total"
	MetricOcalls          = "sdk_ocalls_total"
	MetricHotCallInline   = "hotcall_inline_total"   // fabric calls the requester ran itself, the responders being parked
	MetricHotCallRejected = "hotcall_rejected_total" // scatter-gather calls refused at dispatch: a descriptor outside the requester's ring

	// Leaf-instruction counters.
	MetricEEnter = "sgx_eenter_total"
	MetricEExit  = "sgx_eexit_total"
	MetricResume = "sgx_eresume_total"
	MetricAEX    = "sgx_aex_total"

	// Deferred wakes sent by requesters after running calls inline.
	MetricResponderKicks = "hotcall_responder_kicks_total"
)

// standardCounters are the names RegisterStandard pre-creates.
var standardCounters = []string{
	MetricEcalls, MetricOcalls, MetricHotCallInline, MetricHotCallRejected,
	MetricEEnter, MetricEExit, MetricResume, MetricAEX,
	MetricResponderKicks,
}

// RegisterStandard pre-creates the standard boundary metrics so exports
// always include the full set (at zero when untouched).  Safe on nil.
func RegisterStandard(r *Registry) {
	for _, name := range standardCounters {
		r.Counter(name)
	}
}
