package incident

import (
	"net/http"
	"time"

	"hotcalls/internal/flight"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// bundleMeta is one row of the /debug/incidents list view.
type bundleMeta struct {
	ID            string           `json:"id"`
	Rule          string           `json:"rule"`
	Severity      monitor.Severity `json:"severity"`
	Seq           int              `json:"seq"`
	CapturedAt    time.Time        `json:"captured_at"`
	Records       int              `json:"records"`
	Outliers      int              `json:"outliers"`
	CriticalPaths int              `json:"critical_paths"`
}

// handler is /debug/incidents.  The embedded Formats are the list view's
// — what the path serves without ?id=, and so what the /debug/ index
// advertises for it.
type handler struct {
	telemetry.Formats
	c *Capturer
}

// Handler serves the capturer at /debug/incidents, both views under the
// shared ?format= contract (telemetry.Formats):
//
//	GET /debug/incidents           the retained bundles, listed (json only)
//	GET /debug/incidents?id=<id>   one bundle: json (the default) in full,
//	                               text the RenderText postmortem summary,
//	                               trace the Chrome trace_event JSON of its
//	                               frozen timelines
//
// Unknown IDs get 404.  Safe on a nil capturer (serves an empty list).
func Handler(c *Capturer) http.Handler {
	return handler{c: c, Formats: telemetry.Formats{
		telemetry.JSON(func(*http.Request) any { return listOf(c) }),
	}}
}

func (h handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("id")
	if id == "" {
		h.Formats.ServeHTTP(w, req)
		return
	}
	var b *Bundle
	if h.c != nil {
		b, _ = h.c.Bundle(id)
	}
	if b == nil {
		http.Error(w, "no such incident bundle: "+id, http.StatusNotFound)
		return
	}
	telemetry.Formats{
		telemetry.JSON(func(*http.Request) any { return b }),
		telemetry.Text("text", telemetry.ContentTypeText, func(*http.Request) string { return b.RenderText() }),
		{Name: "trace", ContentType: telemetry.ContentTypeJSON, Render: func(w http.ResponseWriter, _ *http.Request) {
			views := append(append([]flightView(nil), b.Outliers...), b.Records...)
			_ = telemetry.WriteChromeJSON(w, flight.ChromeEventsForViews(views))
		}},
	}.ServeHTTP(w, req)
}

// bundleList is the list view's document.
type bundleList struct {
	Bundles    []bundleMeta `json:"bundles"`
	Captured   uint64       `json:"captured"`
	Suppressed uint64       `json:"suppressed"`
	DiskError  string       `json:"disk_error,omitempty"`
}

func listOf(c *Capturer) bundleList {
	list := bundleList{Bundles: []bundleMeta{}}
	if c != nil {
		for _, b := range c.Bundles() {
			list.Bundles = append(list.Bundles, bundleMeta{
				ID:            b.ID,
				Rule:          b.Event.Rule,
				Severity:      b.Event.Severity,
				Seq:           b.Event.Seq,
				CapturedAt:    b.CapturedAt,
				Records:       len(b.Records),
				Outliers:      len(b.Outliers),
				CriticalPaths: len(b.CriticalPaths),
			})
		}
		var err error
		list.Captured, list.Suppressed, err = c.Stats()
		if err != nil {
			list.DiskError = err.Error()
		}
	}
	return list
}
