package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"hotcalls/internal/sim"
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

// cyclesPerMicro converts simulated cycles to trace microseconds at the
// testbed core frequency.
const cyclesPerMicro = float64(sim.FrequencyHz) / 1e6

// ChromeEvent is one trace_event record in the Chrome/Perfetto JSON
// format, the one record type of every Chrome export in the tree (this
// exporter's cycle-domain rows and the flight recorder's wall-clock rows).
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTID groups event kinds onto stable rows: all call spans on one
// row per mechanism, hardware/paging events on their own rows.
func chromeTID(k Kind) int {
	switch k {
	case KindEcall, KindOcall:
		return 1 // SDK interface
	case KindHotECall, KindHotOCall, KindFallback:
		return 2 // HotCalls interface
	case KindEEnter, KindEExit, KindEResume, KindAEX:
		return 3 // leaf instructions
	case KindEPCFault, KindEWB:
		return 4 // paging
	case KindMemAccess:
		return 6 // memory operations (deep tracing)
	case KindMarshal, KindSpin, KindHandler:
		return 7 // call phases (deep tracing)
	default:
		return 5 // MEE
	}
}

var chromeRowNames = map[int]string{
	1: "sdk calls", 2: "hotcalls", 3: "sgx instructions", 4: "epc paging", 5: "mee",
	6: "memory", 7: "call phases",
}

// ChromeMetadata is a trace_event metadata record (string-valued args,
// unlike the mixed args of data events): a thread_name record names a row.
type ChromeMetadata struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

// ChromeRowMetadata returns the thread_name metadata records naming the
// exporter's stable rows, so every export groups kinds identically.
func ChromeRowMetadata() []any {
	out := make([]any, 0, len(chromeRowNames))
	for tid := 1; tid <= len(chromeRowNames); tid++ {
		out = append(out, ChromeMetadata{
			Name: "thread_name", Phase: "M", PID: 0, TID: tid,
			Args: map[string]string{"name": chromeRowNames[tid]},
		})
	}
	return out
}

// ChromeTraceEvents converts tracer events to Chrome trace_event records
// (cycles rescaled to microseconds at the testbed frequency): spans
// (Dur > 0) become complete ("X") events, instantaneous events become
// instant ("i") events.
func ChromeTraceEvents(events []Event) []any {
	out := make([]any, 0, len(events))
	for _, e := range events {
		ce := ChromeEvent{
			Name:  e.Name,
			Cat:   e.Kind.String(),
			Phase: "X",
			TS:    float64(e.TS) / cyclesPerMicro,
			PID:   0,
			TID:   chromeTID(e.Kind),
		}
		if e.Dur > 0 {
			ce.Dur = float64(e.Dur) / cyclesPerMicro
		} else {
			ce.Phase = "i"
		}
		if e.Arg != 0 {
			ce.Args = map[string]any{"arg": e.Arg, "cycles": e.Dur}
		} else if e.Dur > 0 {
			ce.Args = map[string]any{"cycles": e.Dur}
		}
		out = append(out, ce)
	}
	return out
}

// WriteChromeJSON wraps prepared trace_event records in the standard
// envelope ({"traceEvents": [...]}) Chrome and Perfetto load.
func WriteChromeJSON(w io.Writer, events []any) error {
	out := struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	if out.TraceEvents == nil {
		out.TraceEvents = []any{}
	}
	return json.NewEncoder(w).Encode(out)
}

// WriteChromeTrace renders the tracer's retained events as Chrome
// trace_event JSON, loadable in chrome://tracing or ui.perfetto.dev.
// Spans (Dur > 0) become complete ("X") events; instantaneous events
// become instant ("i") events.  Safe on a nil registry or disabled
// tracer (writes an empty trace).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	events := r.Tracer().Events()
	all := append(ChromeRowMetadata(), ChromeTraceEvents(events)...)
	return WriteChromeJSON(w, all)
}
