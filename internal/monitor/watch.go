package monitor

import (
	"fmt"
	"strings"

	"hotcalls/internal/epcstat"
)

// RenderText renders the monitor's trailing n samples as an aligned
// table plus the health line and active alerts — the body of both
// `hotbench -watch` (redrawn in place) and `/debug/monitor?format=text`.
// The line count is stable for a fixed n once the ring holds n samples
// and the EPC owner set stops growing, which is what lets the watch loop
// repaint with a cursor-up escape.
func (m *Monitor) RenderText(n int) string {
	var b strings.Builder
	h := m.Health()
	fmt.Fprintf(&b, "health: %s", h.Status)
	if h.Last != nil {
		// Gauges carry their units; the pool gauges only exist when a
		// fabric is attached to the registry.
		fmt.Fprintf(&b, "  (sample %d, epc %d pages", h.Last.Seq, h.Last.EPCResident)
		if h.Last.PoolRespondersMax > 0 {
			fmt.Fprintf(&b, ", pool %d/%d responders, occupancy %.3f",
				h.Last.PoolResponders, h.Last.PoolRespondersMax,
				float64(h.Last.PoolOccupancyMilli)/1000)
		}
		b.WriteByte(')')
	}
	b.WriteByte('\n')

	header := fmt.Sprintf("%5s  %8s  %6s  %6s  %6s  %8s  %8s  %8s  %8s  %8s",
		"seq", "calls", "fb%", "occ", "mee%", "p50", "p95", "p99", "spin/cl", "epc-ev")
	b.WriteString(header)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len(header)))
	b.WriteByte('\n')
	for _, s := range m.Window(n) {
		fbRate := s.FallbackRate
		if s.TimeoutRate > fbRate {
			fbRate = s.TimeoutRate
		}
		spinPerCall := 0.0
		if s.DSubmissions > 0 {
			spinPerCall = float64(s.DSpinCycles) / float64(s.DSubmissions)
		}
		fmt.Fprintf(&b, "%5d  %8d  %6.1f  %6.3f  %6.1f  %8d  %8d  %8d  %8.0f  %8d\n",
			s.Seq, s.DSubmissions, fbRate*100, s.Occupancy, s.MEEHitRate*100,
			s.LatencyP50, s.LatencyP95, s.LatencyP99, spinPerCall, s.DEPCEvicts)
	}
	if h.Last != nil && h.Last.EPC != nil && len(h.Last.EPC.Owners) > 0 {
		renderEPCOwners(&b, h.Last.EPC)
	}
	if len(h.Alerts) > 0 {
		b.WriteString("alerts:\n")
		for _, e := range h.Alerts {
			fmt.Fprintf(&b, "  [%s] %s: %s\n", e.Severity, e.Rule, e.Diagnosis)
		}
	}
	return b.String()
}

// renderEPCOwners renders the per-owner EPC section from the newest
// sample's observatory snapshot — the same consistent view the
// EPC-scoped rules evaluated, not a fresh flush.
func renderEPCOwners(b *strings.Builder, s *epcstat.Snapshot) {
	fmt.Fprintf(b, "epc owners (%d/%d pages resident, wss≈%d):\n",
		s.ResidentPages, s.CapacityPages, s.WSSPages)
	fmt.Fprintf(b, "  %-16s %9s %9s %9s %9s %9s\n",
		"owner", "resident", "wss", "faults", "evicted", "caused")
	for _, o := range s.Owners {
		fmt.Fprintf(b, "  %-16s %9d %9d %9d %9d %9d\n",
			epcOwnerName(o.Owner, o.Label), o.ResidentPages, o.WSSPages,
			o.Faults, o.Evictions, o.EvictionsCaused)
	}
}
