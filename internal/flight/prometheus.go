package flight

import (
	"fmt"
	"io"
)

// WritePrometheus writes the per-callsite stats table as Prometheus
// exposition text: one labelled series per callsite per family, so the
// callsite counts and tail latencies are scrapeable instead of being
// reachable only through /debug/flight.  It digests pending records first (via Stats) and emits
// families in a fixed order with callsites ordered by ID, keeping the
// output deterministic for fixed inputs.
// monitor.Mux appends this block to the /metrics exposition.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	stats := r.Stats()
	if len(stats) == 0 {
		return nil
	}
	families := []struct {
		name, typ string
		value     func(cs CallsiteStats) string
	}{
		{"flight_callsite_arrivals_total", "counter",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.Arrivals) }},
		{"flight_callsite_timeouts_total", "counter",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.Timeouts) }},
		{"flight_callsite_fallbacks_total", "counter",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.Fallbacks) }},
		{"flight_callsite_outliers_total", "counter",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.Outliers) }},
		{"flight_callsite_service_p50_ns", "gauge",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.ServiceP50NS) }},
		{"flight_callsite_service_p99_ns", "gauge",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.ServiceP99NS) }},
		{"flight_callsite_latency_p50_ns", "gauge",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.LatencyP50NS) }},
		{"flight_callsite_latency_p99_ns", "gauge",
			func(cs CallsiteStats) string { return fmt.Sprintf("%d", cs.LatencyP99NS) }},
	}
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, cs := range stats {
			// %q covers the exposition format's label escapes
			// (backslash, quote, newline).
			if _, err := fmt.Fprintf(w, "%s{callsite=%q} %s\n",
				f.name, cs.Name, f.value(cs)); err != nil {
				return err
			}
		}
	}
	return nil
}
