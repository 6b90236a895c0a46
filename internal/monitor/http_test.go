package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"hotcalls/internal/epcstat"
	"hotcalls/internal/telemetry"
)

func TestHealthHandler(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()

	rec := httptest.NewRecorder()
	HealthHandler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy status code = %d", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %s", h.Status)
	}

	// Drive it critical: a full-blown fallback storm.
	bump(reg, telemetry.MetricHotCallRequests, 100)
	bump(reg, telemetry.MetricHotCallTimeouts, 90)
	bump(reg, telemetry.MetricHotCallFallbacks, 90)
	m.Tick()
	rec = httptest.NewRecorder()
	HealthHandler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 503 {
		t.Fatalf("critical health should serve 503, got %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "critical" || len(h.Alerts) == 0 {
		t.Fatalf("critical health payload: %+v", h)
	}
}

func TestMonitorHandler(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	for i := 0; i < 5; i++ {
		bump(reg, telemetry.MetricHotCallRequests, 10)
		m.Tick()
	}

	rec := httptest.NewRecorder()
	Handler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor?n=3", nil))
	var payload struct {
		Health  Health   `json:"health"`
		Samples []Sample `json:"samples"`
		Events  []Event  `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(payload.Samples))
	}
	if payload.Health.Status != "ok" {
		t.Fatalf("health = %s", payload.Health.Status)
	}

	rec = httptest.NewRecorder()
	Handler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor?format=text", nil))
	if !strings.Contains(rec.Body.String(), "health: ok") {
		t.Fatalf("text format body:\n%s", rec.Body.String())
	}
}

// TestMonitorHandlerContentTypes mirrors the flight endpoint contract:
// explicit Content-Type on every format, 400 on unknown ones.
func TestMonitorHandlerContentTypes(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	h := Handler(m)

	cases := []struct {
		query string
		code  int
		ct    string
	}{
		{"", 200, telemetry.ContentTypeJSON},
		{"?format=json", 200, telemetry.ContentTypeJSON},
		{"?format=text", 200, telemetry.ContentTypeText},
		{"?format=csv", 400, ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/monitor"+c.query, nil))
		if rec.Code != c.code {
			t.Errorf("%q: status = %d, want %d", c.query, rec.Code, c.code)
			continue
		}
		if c.ct != "" && rec.Header().Get("Content-Type") != c.ct {
			t.Errorf("%q: content-type = %q, want %q", c.query, rec.Header().Get("Content-Type"), c.ct)
		}
	}

	rec := httptest.NewRecorder()
	HealthHandler(m).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentTypeJSON {
		t.Errorf("health content-type = %q", ct)
	}
}

// TestHealthHandlerContentTypes holds /debug/health to the same contract
// as /debug/monitor and /debug/epc: explicit Content-Type per format,
// format validated before any work, 400 on unknown values — and the
// 503-on-critical semantics preserved across both renderings.
func TestHealthHandlerContentTypes(t *testing.T) {
	reg := telemetry.New()
	m := New(reg, Options{})
	m.Tick()
	h := HealthHandler(m)

	cases := []struct {
		query    string
		code     int
		ct       string
		contains string
	}{
		{"", 200, telemetry.ContentTypeJSON, `"status": "ok"`},
		{"?format=json", 200, telemetry.ContentTypeJSON, `"status": "ok"`},
		{"?format=text", 200, telemetry.ContentTypeText, "ok (1 samples, 0 active alerts)"},
		{"?format=csv", 400, "", "unknown format"},
		{"?format=TEXT", 400, "", "unknown format"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health"+c.query, nil))
		if rec.Code != c.code {
			t.Errorf("%q: status = %d, want %d", c.query, rec.Code, c.code)
			continue
		}
		if c.ct != "" && rec.Header().Get("Content-Type") != c.ct {
			t.Errorf("%q: content-type = %q, want %q", c.query, rec.Header().Get("Content-Type"), c.ct)
		}
		if !strings.Contains(rec.Body.String(), c.contains) {
			t.Errorf("%q: body missing %q:\n%s", c.query, c.contains, rec.Body.String())
		}
	}

	// Critical health serves 503 in both renderings.
	bump(reg, telemetry.MetricHotCallRequests, 100)
	bump(reg, telemetry.MetricHotCallTimeouts, 90)
	bump(reg, telemetry.MetricHotCallFallbacks, 90)
	m.Tick()
	for _, query := range []string{"", "?format=text"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health"+query, nil))
		if rec.Code != 503 {
			t.Errorf("critical %q: status = %d, want 503", query, rec.Code)
		}
	}
}

func TestMux(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricHotCallRequests).Add(7)
	m := New(reg, Options{})
	m.Tick()
	mux := Mux(reg, m)
	for path, want := range map[string]string{
		"/metrics":       "hotcall_requests_total 7",
		"/debug/health":  `"status": "ok"`,
		"/debug/monitor": `"samples"`,
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%s: %d %q", path, rec.Code, rec.Body.String())
		}
	}

	// /debug/epc mounts only when an observatory is attached.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/epc", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/epc without a collector: %d, want 404", rec.Code)
	}
	withEPC := New(reg, Options{EPC: epcstat.New(epcstat.Options{})})
	rec = httptest.NewRecorder()
	Mux(reg, withEPC).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/epc", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), epcstat.SnapshotSchema) {
		t.Fatalf("/debug/epc with a collector: %d %q", rec.Code, rec.Body.String())
	}
}
