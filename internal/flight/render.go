package flight

import (
	"fmt"
	"strings"
)

// RenderText renders the live per-callsite stats table as aligned
// plain text — the ?format=text view of /debug/flight.
func (r *Recorder) RenderText() string {
	if r == nil {
		return "flight: disabled\n"
	}
	stats := r.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "flight: %d callsites, %d records digested, %d dropped\n",
		len(stats), r.Digested(), r.Dropped())
	if len(stats) == 0 {
		b.WriteString("(no calls recorded)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %10s %8s %8s %8s %10s %9s %14s\n",
		"callsite", "calls", "p50 svc", "p99 svc", "p50 lat", "p99 lat",
		"timeout", "fallbk", "outliers", "cutoff", "escalated", "last trace")
	for _, cs := range stats {
		esc := "-"
		if cs.Escalated {
			esc = "yes"
		}
		fmt.Fprintf(&b, "%-20s %10d %10s %10s %10s %10s %8d %8d %8d %10s %9s 0x%012x\n",
			cs.Name, cs.Arrivals,
			FmtNS(cs.ServiceP50NS), FmtNS(cs.ServiceP99NS),
			FmtNS(cs.LatencyP50NS), FmtNS(cs.LatencyP99NS),
			cs.Timeouts, cs.Fallbacks, cs.Outliers, FmtNS(cs.CutoffNS), esc, cs.LastTraceID)
	}
	return b.String()
}

// FmtNS renders a nanosecond duration with a human unit ("-" for
// zero).  Shared by this table and the incident bundle's callsite table.
func FmtNS(ns uint64) string {
	switch {
	case ns == 0:
		return "-"
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
