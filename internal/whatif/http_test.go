package whatif_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
	"hotcalls/internal/whatif"
)

// TestHandlerContentTypes holds /debug/whatif to the shared debug
// endpoint contract: explicit Content-Type per format, 400 on unknown
// ones, and the JSON body carries the report schema.
func TestHandlerContentTypes(t *testing.T) {
	o := whatif.NewObservatory(whatif.CostParams{})
	o.SetCausal(whatif.AnalyzeCausal(whatif.DefaultModel().Generate(sim.NewRNG(1), 100), 0.10))
	h := whatif.Handler(o)

	for _, c := range []struct {
		query  string
		status int
		ct     string
		body   string
	}{
		{"", 200, telemetry.ContentTypeJSON, whatif.ReportSchema},
		{"?format=json", 200, telemetry.ContentTypeJSON, whatif.RoutingSchema},
		{"?format=text", 200, telemetry.ContentTypeText, "what-if observatory"},
		{"?format=svg", 200, telemetry.ContentTypeSVG, "<svg"},
		{"?format=pdf", 400, "", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/whatif"+c.query, nil))
		if rec.Code != c.status {
			t.Errorf("%q: status %d, want %d", c.query, rec.Code, c.status)
		}
		if c.ct != "" && rec.Header().Get("Content-Type") != c.ct {
			t.Errorf("%q: content-type %q, want %q", c.query, rec.Header().Get("Content-Type"), c.ct)
		}
		if c.body != "" && !strings.Contains(rec.Body.String(), c.body) {
			t.Errorf("%q: body missing %q", c.query, c.body)
		}
	}
}

// TestHandlerNilObservatory: the handler must serve an empty report,
// not panic, when the observatory was never armed.
func TestHandlerNilObservatory(t *testing.T) {
	h := whatif.Handler(nil)
	for _, q := range []string{"", "?format=text", "?format=svg"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/whatif"+q, nil))
		if rec.Code != 200 {
			t.Fatalf("%q on nil observatory: status %d", q, rec.Code)
		}
	}
}

// TestObservatoryPrometheus pins the regret exposition series.
func TestObservatoryPrometheus(t *testing.T) {
	o := whatif.NewObservatory(whatif.CostParams{})
	o.Router().Declare("busy", whatif.PolicySync)
	o.Observe(threeSites(1), 0)
	o.Observe(threeSites(2), 1e9)

	var b strings.Builder
	if err := o.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"whatif_regret_cycles_total ",
		"whatif_interval_regret_cycles ",
		`whatif_callsite_regret_cycles{callsite="busy",current="sync",best="hot"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil-safe no-op.
	if err := (*whatif.Observatory)(nil).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}
