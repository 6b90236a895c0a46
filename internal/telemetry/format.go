package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// Content types of the observability endpoints, so every one labels its
// payload explicitly and the same way.
const (
	ContentTypeJSON    = "application/json; charset=utf-8"
	ContentTypeText    = "text/plain; charset=utf-8"
	ContentTypeSVG     = "image/svg+xml; charset=utf-8"
	ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8" // Prometheus exposition
)

// Format is one rendering of a debug endpoint, selected by ?format=Name.
type Format struct {
	Name        string
	ContentType string
	// Render writes the body.  Content-Type is already set; a rendering
	// that answers with another status (/debug/health's 503) calls
	// WriteHeader before its first byte.
	Render func(w http.ResponseWriter, req *http.Request)
}

// Formats is the ?format= contract of every /debug/* endpoint, as an
// http.Handler: the renderings in order, the first one the default (it
// also serves an absent or empty ?format=), each under its own
// Content-Type, and any other name a 400 — answered before any rendering
// work — whose text lists the names.
type Formats []Format

func (fs Formats) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	name := req.URL.Query().Get("format")
	for i, f := range fs {
		if f.Name == name || (i == 0 && name == "") {
			w.Header().Set("Content-Type", f.ContentType)
			f.Render(w, req)
			return
		}
	}
	http.Error(w, "unknown format (want "+strings.Join(fs.FormatNames(), ", ")+")", http.StatusBadRequest)
}

// FormatNames lists the renderings by name, the default first — what the
// /debug/ index advertises for the endpoint.
func (fs Formats) FormatNames() []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// JSON is the "json" rendering of doc(req): the JSON content type and the
// one indented writer, bound to the name once.
func JSON(doc func(*http.Request) any) Format {
	return Format{"json", ContentTypeJSON, func(w http.ResponseWriter, req *http.Request) { WriteJSON(w, doc(req)) }}
}

// Text is a rendering that is one string — a "text" table, an "svg"
// figure — under the content type given.
func Text(name, contentType string, body func(*http.Request) string) Format {
	return Format{name, contentType, func(w http.ResponseWriter, req *http.Request) { _, _ = io.WriteString(w, body(req)) }}
}

// WriteJSON is the endpoints' one JSON rendering: two-space indented, one
// trailing newline.  A failed write means the client went away; there is
// nobody left to report it to.
func WriteJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
