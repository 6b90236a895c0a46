package telemetry

import (
	"fmt"
	"io"
)

// WritePrometheus renders every counter and histogram in the Prometheus
// text exposition format (version 0.0.4): counters as `# TYPE x counter`
// samples, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`.  Output is sorted by name so dumps diff cleanly.
// Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	for _, name := range sortedNames(snap.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(snap.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(snap.Histograms) {
		h := snap.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum uint64
		for i, n := range h.Buckets {
			cum += n
			if n == 0 && i != histBuckets-1 {
				continue // elide empty buckets; cumulative `le` keeps semantics
			}
			le := fmt.Sprint(BucketUpper(i))
			if i == histBuckets-1 {
				le = "+Inf"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
