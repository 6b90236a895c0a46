package epcstat

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"hotcalls/internal/telemetry"
)

// TestHandlerContentTypes checks the /debug/epc format negotiation: every
// supported rendering declares its Content-Type, unknown formats are
// rejected before any work with a 400.
func TestHandlerContentTypes(t *testing.T) {
	m, c := newFixture(8, Options{})
	for p := uint64(0); p < 12; p++ {
		m.TouchAs(1, p)
	}
	h := Handler(c)
	cases := []struct {
		url      string
		status   int
		cType    string
		contains string
	}{
		{"/debug/epc", 200, telemetry.ContentTypeJSON, `"schema": "epcstat/v1"`},
		{"/debug/epc?format=json", 200, telemetry.ContentTypeJSON, `"interference"`},
		{"/debug/epc?format=text", 200, telemetry.ContentTypeText, "pages resident"},
		{"/debug/epc?format=svg", 200, telemetry.ContentTypeSVG, "<svg"},
		{"/debug/epc?format=csv", 400, "", "unknown format"},
		{"/debug/epc?format=SVG", 400, "", "unknown format"},
	}
	for _, tc := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", tc.url, nil))
		if rr.Code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.url, rr.Code, tc.status)
		}
		if tc.cType != "" && rr.Header().Get("Content-Type") != tc.cType {
			t.Fatalf("%s: Content-Type %q, want %q", tc.url, rr.Header().Get("Content-Type"), tc.cType)
		}
		if !strings.Contains(rr.Body.String(), tc.contains) {
			t.Fatalf("%s: body missing %q:\n%s", tc.url, tc.contains, rr.Body.String())
		}
	}
}

// TestHandlerEmptyCollector checks a collector with no traffic still
// serves valid JSON carrying the schema marker, not a null or an error.
func TestHandlerEmptyCollector(t *testing.T) {
	_, c := newFixture(8, Options{})
	rr := httptest.NewRecorder()
	Handler(c).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/epc", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d, want 200", rr.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON from empty collector: %v", err)
	}
	if s.Schema != SnapshotSchema {
		t.Fatalf("schema = %q, want %q", s.Schema, SnapshotSchema)
	}
}

// TestHeatSVGDeterministic checks the heatmap rendering is byte-stable
// for a fixed snapshot (the CI artifact depends on it) and nil-safe.
func TestHeatSVGDeterministic(t *testing.T) {
	m, c := newFixture(8, Options{})
	c.SetLabel(1, "web")
	for p := uint64(0); p < 20; p++ {
		m.TouchAs(1, p)
	}
	s := c.Snapshot()
	a, b := HeatSVG(s), HeatSVG(s)
	if a != b {
		t.Fatal("HeatSVG is not deterministic for the same snapshot")
	}
	if !strings.Contains(a, "web(#1)") {
		t.Fatal("heatmap missing the labelled owner series")
	}
	if got := HeatSVG(nil); !strings.Contains(got, "<svg") {
		t.Fatalf("nil-snapshot heatmap should still be an SVG shell, got %q", got)
	}
}
