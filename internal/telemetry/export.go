package telemetry

import (
	"fmt"
	"io"
)

// WritePrometheus renders every counter in the Prometheus text
// exposition format (version 0.0.4), as `# TYPE x counter` samples.
// Output is sorted by name so dumps diff cleanly.  Safe on a nil registry
// (writes nothing).
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
	return nil
}
