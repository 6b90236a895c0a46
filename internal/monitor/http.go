package monitor

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// HealthHandler serves the aggregate health verdict on /debug/health
// under the shared ?format= contract (telemetry.Formats): json (the
// default) is {"status": "ok" | "degraded" | "critical", ...} with the
// active alerts and the newest sample, text a one-line status.  A
// critical status is served with 503 in either rendering so load-balancer
// probes can act on it without parsing the body; ok and degraded serve
// 200.
func HealthHandler(m *Monitor) http.Handler {
	verdict := func(w http.ResponseWriter) Health {
		h := m.Health()
		if h.Status == "critical" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		return h
	}
	return telemetry.Formats{
		{Name: "json", ContentType: telemetry.ContentTypeJSON, Render: func(w http.ResponseWriter, _ *http.Request) {
			telemetry.WriteJSON(w, verdict(w))
		}},
		{Name: "text", ContentType: telemetry.ContentTypeText, Render: func(w http.ResponseWriter, _ *http.Request) {
			h := verdict(w)
			fmt.Fprintf(w, "%s (%d samples, %d active alerts)\n", h.Status, h.Samples, len(h.Alerts))
		}},
	}
}

// Handler serves the monitor's recent window on /debug/monitor under the
// same contract: json (the default) carries the trailing samples and the
// event log, text the human-readable table.  ?n=K bounds the sample
// count (default 20).
func Handler(m *Monitor) http.Handler {
	samples := func(req *http.Request) int {
		if n, err := strconv.Atoi(req.URL.Query().Get("n")); err == nil && n > 0 {
			return n
		}
		return 20
	}
	return telemetry.Formats{
		telemetry.JSON(func(req *http.Request) any {
			return struct {
				Health  Health   `json:"health"`
				Samples []Sample `json:"samples"`
				Events  []Event  `json:"events"`
			}{m.Health(), m.Window(samples(req)), m.Events()}
		}),
		telemetry.Text("text", telemetry.ContentTypeText, func(req *http.Request) string { return m.RenderText(samples(req)) }),
	}
}

// DebugEntry is one mounted endpoint on a DebugMux, as the /debug/
// index lists it.  Formats names the ?format= renderings the endpoint
// offers, the default first; empty for an endpoint with one fixed body
// (/metrics).
type DebugEntry struct {
	Path    string   `json:"path"`
	Desc    string   `json:"desc"`
	Formats []string `json:"formats,omitempty"`
}

// DebugMux is an http.ServeMux that keeps a self-describing catalogue
// of its endpoints and serves it as an index on /debug/ — so an
// operator landing on the port can discover every mounted surface
// (health, monitor, flight, incidents, epc, metrics) and the
// renderings each offers without reading the source.  Register
// catalogued endpoints with HandleEntry; plain Handle still works for
// unlisted ones.
type DebugMux struct {
	*http.ServeMux
	entries []DebugEntry
}

// NewDebugMux returns an empty catalogue mux with the /debug/ index
// mounted.
func NewDebugMux() *DebugMux {
	d := &DebugMux{ServeMux: http.NewServeMux()}
	d.ServeMux.Handle("/debug/", d.indexHandler())
	return d
}

// HandleEntry mounts the handler and lists it in the /debug/ index, with
// its renderings when the handler says which it offers (a
// telemetry.Formats does).
func (d *DebugMux) HandleEntry(path, desc string, h http.Handler) {
	d.ServeMux.Handle(path, h)
	e := DebugEntry{Path: path, Desc: desc}
	if f, ok := h.(interface{ FormatNames() []string }); ok {
		e.Formats = f.FormatNames()
	}
	d.entries = append(d.entries, e)
}

// Entries returns the catalogued endpoints sorted by path.
func (d *DebugMux) Entries() []DebugEntry {
	out := make([]DebugEntry, len(d.entries))
	copy(out, d.entries)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// indexHandler serves the endpoint catalogue at exactly /debug/ (the
// ServeMux subtree pattern also routes unknown /debug/* paths here;
// those stay 404s), under the contract it catalogues: json (the
// default), or text for a plain listing.
func (d *DebugMux) indexHandler() http.Handler {
	index := telemetry.Formats{
		telemetry.JSON(func(*http.Request) any {
			return struct {
				Endpoints []DebugEntry `json:"endpoints"`
			}{d.Entries()}
		}),
		{Name: "text", ContentType: telemetry.ContentTypeText, Render: func(w http.ResponseWriter, _ *http.Request) {
			for _, e := range d.Entries() {
				fmt.Fprintf(w, "%-20s %s\n", e.Path, e.Desc)
			}
		}},
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/" {
			http.NotFound(w, req)
			return
		}
		index.ServeHTTP(w, req)
	})
}

// Mux bundles the full observability surface of a monitored server:
// /metrics (Prometheus exposition — registry metrics plus, when a
// recorder is attached, flight per-callsite series), /debug/health,
// /debug/monitor, a /debug/ index listing every mounted endpoint, and —
// per attached collector — /debug/flight (Options.Flight) and /debug/epc
// (Options.EPC).  The returned DebugMux is a ServeMux; callers can keep
// mounting (HandleEntry adds to the index).
func Mux(reg *telemetry.Registry, m *Monitor) *DebugMux {
	mux := NewDebugMux()
	mux.HandleEntry("/metrics", "Prometheus exposition (registry + flight callsites)", metricsHandler(reg, m))
	mux.HandleEntry("/debug/health", "aggregate health verdict (503 when critical)", HealthHandler(m))
	mux.HandleEntry("/debug/monitor", "recent samples, events, and rule verdicts", Handler(m))
	if f := m.Flight(); f != nil {
		mux.HandleEntry("/debug/flight", "per-callsite flight recorder stats and traces", flight.Handler(f))
	}
	if c := m.EPCStat(); c != nil {
		mux.HandleEntry("/debug/epc", "EPC pressure observatory (per-owner paging)", epcstat.Handler(c))
	}
	return mux
}

// metricsHandler concatenates the Prometheus expositions of every
// attached source: the registry first, then the flight recorder's
// per-callsite series.
func metricsHandler(reg *telemetry.Registry, m *Monitor) http.Handler {
	registry := telemetry.Handler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		registry.ServeHTTP(w, req)
		if f := m.Flight(); f != nil {
			_ = f.WritePrometheus(w)
		}
	})
}
