package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestFormats pins the ?format= contract every /debug/* endpoint serves:
// the first rendering is the default, each name selects its own
// Content-Type, an unknown name is a 400 that lists the names and renders
// nothing, and a rendering's own status code (health's 503) survives.
func TestFormats(t *testing.T) {
	rendered := 0
	body := func(s string, status int) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, _ *http.Request) {
			rendered++
			if status != 0 {
				w.WriteHeader(status)
			}
			_, _ = io.WriteString(w, s)
		}
	}
	fs := Formats{
		JSON(func(*http.Request) any { rendered++; return struct{}{} }),
		Text("text", ContentTypeText, func(*http.Request) string { rendered++; return "plain" }),
		{Name: "svg", ContentType: ContentTypeSVG, Render: body("<svg/>", http.StatusServiceUnavailable)},
	}
	for _, c := range []struct {
		query, ct, body string
		code            int
	}{
		{"", ContentTypeJSON, "{}\n", 200},
		{"?format=", ContentTypeJSON, "{}\n", 200},
		{"?format=json", ContentTypeJSON, "{}\n", 200},
		{"?format=text", ContentTypeText, "plain", 200},
		{"?format=svg", ContentTypeSVG, "<svg/>", 503},
	} {
		rec := httptest.NewRecorder()
		fs.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/x"+c.query, nil))
		if rec.Code != c.code || rec.Header().Get("Content-Type") != c.ct || rec.Body.String() != c.body {
			t.Errorf("%q: %d %q %q, want %d %q %q", c.query,
				rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), c.code, c.ct, c.body)
		}
	}

	rendered = 0
	for _, query := range []string{"?format=csv", "?format=JSON"} {
		rec := httptest.NewRecorder()
		fs.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/x"+query, nil))
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown format (want json, text, svg)") {
			t.Errorf("%q: %d %q", query, rec.Code, rec.Body.String())
		}
	}
	if rendered != 0 {
		t.Errorf("an unknown format rendered %d times", rendered)
	}

	if got := strings.Join(fs.FormatNames(), ","); got != "json,text,svg" {
		t.Errorf("FormatNames = %s", got)
	}
}
