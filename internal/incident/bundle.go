package incident

import (
	"fmt"
	"strings"
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

// RenderText renders the bundle's postmortem summary as aligned plain
// text: the firing diagnosis, the affected callsites, and the
// critical-path table answering "where did the latency go".
func (b *Bundle) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "incident %s (%s)\n", b.ID, b.Schema)
	fmt.Fprintf(&sb, "rule: %s  severity: %s  value: %.4g  threshold: %.4g\n",
		b.Event.Rule, b.Event.Severity, b.Event.Value, b.Event.Threshold)
	fmt.Fprintf(&sb, "diagnosis: %s\n", b.Event.Diagnosis)
	fmt.Fprintf(&sb, "captured: %s  window: %d samples  records: %d  outliers: %d\n",
		b.CapturedAt.Format(time.RFC3339), len(b.Window), len(b.Records), len(b.Outliers))

	if len(b.Callsites) > 0 {
		fmt.Fprintf(&sb, "\ncallsites:\n%-20s %10s %8s %8s %10s %10s %10s\n",
			"callsite", "calls", "timeout", "fallbk", "outliers", "p99 lat", "cutoff")
		for _, cs := range b.Callsites {
			fmt.Fprintf(&sb, "%-20s %10d %8d %8d %10d %10s %10s\n",
				cs.Name, cs.Arrivals, cs.Timeouts, cs.Fallbacks, cs.Outliers,
				flight.FmtNS(cs.LatencyP99NS), flight.FmtNS(cs.CutoffNS))
		}
	}

	if len(b.CriticalPaths) > 0 {
		sb.WriteString("\ncritical paths (slowest captured calls):\n")
		sb.WriteString(RenderCriticalPaths(b.CriticalPaths))
	} else {
		sb.WriteString("\n(no complete timelines captured)\n")
	}

	if b.EPC != nil {
		sb.WriteString("\nepc pressure:\n")
		sb.WriteString(b.EPC.RenderText())
	}
	return sb.String()
}
