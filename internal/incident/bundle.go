package incident

import (
	"time"

	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// BundleSchema identifies the bundle wire format.  Bump on any
// incompatible field change.
const BundleSchema = "incident-bundle/v1"

// Bundle is one frozen incident: everything needed for a postmortem,
// self-contained (no live process required to read it).  Marshals
// deterministically for fixed inputs — struct fields keep declaration
// order and encoding/json sorts the map keys.
type Bundle struct {
	Schema     string    `json:"schema"`
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`

	// Event is the firing rule's structured diagnosis.
	Event monitor.Event `json:"event"`

	// Window is the monitor's trailing sample history, oldest first.
	Window []monitor.Sample `json:"window,omitempty"`

	// Callsites is the flight recorder's per-callsite stats digest at
	// capture time (tail-sampler columns included when armed).
	Callsites []flight.CallsiteStats `json:"callsites,omitempty"`

	// Records are the recent sampled causal timelines; Outliers are
	// the tail sampler's retained timeout/straggler timelines — the
	// calls that actually explain the event.
	Records  []flight.RecordView `json:"records,omitempty"`
	Outliers []flight.RecordView `json:"outliers,omitempty"`

	// CriticalPaths attributes each captured slow call's latency
	// across queue-wait/dispatch/execute/return, slowest first.
	CriticalPaths []CriticalPath `json:"critical_paths,omitempty"`

	// EPC is the pressure observatory's snapshot at capture time —
	// per-owner residency/WSS/interference — when the monitor has an
	// epcstat collector attached.
	EPC *epcstat.Snapshot `json:"epc,omitempty"`

	// Telemetry is the full registry snapshot (counters, gauges,
	// histograms), when a registry was attached.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}
