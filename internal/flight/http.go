package flight

import (
	"net/http"
	"strconv"

	"hotcalls/internal/telemetry"
)

// flightDump is the JSON document /debug/flight serves: the stats
// table plus a causal window of recent records and the retained
// outlier records — enough to reconstruct individual call timelines and
// resolve the stats table's last trace IDs.
type flightDump struct {
	Callsites []CallsiteStats `json:"callsites"`
	Records   []RecordView    `json:"records"`
	Outliers  []RecordView    `json:"outliers,omitempty"`
	Digested  uint64          `json:"digested"`
	Dropped   uint64          `json:"dropped"`
}

// Handler serves the flight recorder at /debug/flight under the shared
// ?format= contract (telemetry.Formats): json (the default) is the stats
// table plus recent records and outliers, text the RenderText live table, trace the
// Chrome trace_event JSON of the window; &records=N sizes the window
// (default 64).  Every request digests pending records first, so the
// view is current.  Safe on a nil recorder (serves an empty document).
func Handler(r *Recorder) http.Handler {
	window := func(req *http.Request) int {
		if v, err := strconv.Atoi(req.URL.Query().Get("records")); err == nil && v > 0 {
			return v
		}
		return 64
	}
	return telemetry.Formats{
		telemetry.JSON(func(req *http.Request) any {
			max := window(req)
			return flightDump{
				Callsites: r.Stats(), // digests first
				Records:   r.Records(max),
				Outliers:  r.Outliers(max),
				Digested:  r.Digested(),
				Dropped:   r.Dropped(),
			}
		}),
		telemetry.Text("text", telemetry.ContentTypeText, func(*http.Request) string { return r.RenderText() }),
		{Name: "trace", ContentType: telemetry.ContentTypeJSON, Render: func(w http.ResponseWriter, req *http.Request) {
			r.Digest()
			_ = r.WriteChromeTrace(w, window(req))
		}},
	}
}
