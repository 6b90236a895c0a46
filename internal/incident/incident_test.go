package incident

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// stormKit is a deterministic fixture: a registry-backed monitor pinned
// to the fallback-storm rule only, a capturer with an injectable clock,
// and a counter-bumping storm driver.
type stormKit struct {
	reg *telemetry.Registry
	m   *monitor.Monitor
	c   *Capturer
	now time.Time
}

func newStormKit(t *testing.T, mopts monitor.Options, copts Options) *stormKit {
	t.Helper()
	k := &stormKit{reg: telemetry.New(), now: time.Unix(1700000000, 0)}
	if copts.Registry != nil {
		k.reg = copts.Registry // monitor and capturer share the registry
	}
	if mopts.Rules == nil {
		mopts.Rules = []monitor.Rule{&monitor.FallbackStormRule{}}
	}
	k.m = monitor.New(k.reg, mopts)
	copts.Now = func() time.Time { return k.now }
	k.c = New(k.m, copts)
	k.c.Attach()
	k.m.Tick() // baseline
	return k
}

// storm drives one interval of submissions with the given timeout
// fraction, then ticks.
func (k *stormKit) storm(timeouts uint64) monitor.Sample {
	k.reg.Counter(telemetry.MetricHotCallRequests).Add(100)
	k.reg.Counter(telemetry.MetricHotCallTimeouts).Add(timeouts)
	k.reg.Counter(telemetry.MetricHotCallFallbacks).Add(timeouts)
	return k.m.Tick()
}

func TestCaptureOnEvent(t *testing.T) {
	k := newStormKit(t, monitor.Options{}, Options{})
	k.storm(50) // 50% fallback rate: critical

	bundles := k.c.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Schema != BundleSchema {
		t.Fatalf("schema = %q, want %q", b.Schema, BundleSchema)
	}
	if b.Event.Rule != "fallback-storm" || b.Event.Severity != monitor.Critical {
		t.Fatalf("event = %+v, want critical fallback-storm", b.Event)
	}
	if want := BundleID(b.Event); b.ID != want {
		t.Fatalf("id = %q, want %q", b.ID, want)
	}
	if !strings.HasPrefix(b.ID, "inc-fallback-storm-") {
		t.Fatalf("id = %q, want deterministic inc-<rule>-<seq>", b.ID)
	}
	if len(b.Window) == 0 {
		t.Fatal("bundle froze no monitor samples")
	}
	last := b.Window[len(b.Window)-1]
	if last.FallbackRate < 0.4 {
		t.Fatalf("frozen window does not show the storm: %+v", last)
	}
}

func TestCooldownDedup(t *testing.T) {
	k := newStormKit(t, monitor.Options{}, Options{})
	k.storm(50)
	k.storm(50)
	k.now = k.now.Add(cooldown - time.Nanosecond)
	k.storm(50)
	if got := len(k.c.Bundles()); got != 1 {
		t.Fatalf("bundles within cooldown = %d, want 1", got)
	}
	captured, suppressed, _ := k.c.Stats()
	if captured != 1 || suppressed != 2 {
		t.Fatalf("captured=%d suppressed=%d, want 1, 2", captured, suppressed)
	}

	k.now = k.now.Add(time.Nanosecond) // the cooldown since the capture has elapsed
	k.storm(50)
	if got := len(k.c.Bundles()); got != 2 {
		t.Fatalf("bundles after cooldown = %d, want 2", got)
	}
}

// TestFlappingRuleSingleTransition is the S2 hysteresis test: a rule
// flapping across its threshold within one debounce episode emits a
// single event transition and a single incident capture.
func TestFlappingRuleSingleTransition(t *testing.T) {
	// The capturer's clock stands still: one cooldown throughout.
	k := newStormKit(t, monitor.Options{EventDebounce: 3}, Options{})
	k.storm(50) // fires: opens the episode
	k.storm(0)  // below threshold: rule silent
	k.storm(50) // fires again within the episode: suppressed
	k.storm(0)
	k.storm(50) // still within EventDebounce=3 of the last firing

	var stormEvents int
	for _, e := range k.m.Events() {
		if e.Rule == "fallback-storm" && e.Severity >= monitor.Warning {
			stormEvents++
		}
	}
	if stormEvents != 1 {
		t.Fatalf("flapping rule emitted %d event transitions, want 1", stormEvents)
	}
	if got := len(k.c.Bundles()); got != 1 {
		t.Fatalf("flapping rule captured %d bundles, want 1", got)
	}

	// Once the rule stays quiet past the debounce window, the next
	// firing is a new episode and emits again.
	k.storm(0)
	k.storm(0)
	k.storm(0)
	k.storm(0)
	k.storm(50)
	stormEvents = 0
	for _, e := range k.m.Events() {
		if e.Rule == "fallback-storm" && e.Severity >= monitor.Warning {
			stormEvents++
		}
	}
	if stormEvents != 2 {
		t.Fatalf("new episode after quiet window emitted %d total, want 2", stormEvents)
	}
}

func TestRetentionRingBounded(t *testing.T) {
	k := newStormKit(t, monitor.Options{}, Options{})
	var seqs []int
	for i := 0; i < retain+3; i++ {
		k.now = k.now.Add(cooldown)
		seqs = append(seqs, k.storm(50).Seq)
	}
	bundles := k.c.Bundles()
	if len(bundles) != retain {
		t.Fatalf("retained = %d, want %d", len(bundles), retain)
	}
	// Oldest first; the newest retain survive.
	for i, b := range bundles {
		if want := seqs[3+i]; b.Event.Seq != want {
			t.Fatalf("bundles[%d] is from sample %d, want %d", i, b.Event.Seq, want)
		}
	}
}

func TestSpoolToDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	k := newStormKit(t, monitor.Options{}, Options{Dir: dir})
	k.storm(50)

	b := k.c.Bundles()[0]
	data, err := os.ReadFile(filepath.Join(dir, b.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Bundle
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("spooled bundle not valid JSON: %v", err)
	}
	if decoded.Schema != BundleSchema || decoded.ID != b.ID {
		t.Fatalf("spooled bundle mismatch: %+v", decoded)
	}
	if _, _, diskErr := k.c.Stats(); diskErr != nil {
		t.Fatalf("disk error: %v", diskErr)
	}
}

// infoRule emits one Info event on every sample.
type infoRule struct{}

func (infoRule) Name() string { return "info" }

func (infoRule) Evaluate(window []monitor.Sample) []monitor.Event {
	s := window[len(window)-1]
	return []monitor.Event{{Rule: "info", Severity: monitor.Info, Seq: s.Seq, At: s.When}}
}

func TestSeverityGate(t *testing.T) {
	k := newStormKit(t, monitor.Options{Rules: []monitor.Rule{infoRule{}, &monitor.FallbackStormRule{}}}, Options{})
	k.storm(0)
	if got := len(k.c.Bundles()); got != 0 {
		t.Fatalf("info events captured %d bundles, want 0", got)
	}
	k.storm(6) // 6%: warning
	if got := len(k.c.Bundles()); got != 1 || k.c.Bundles()[0].Event.Severity != monitor.Warning {
		t.Fatalf("warning captured %d bundles, want 1", got)
	}
}

func TestHandler(t *testing.T) {
	k := newStormKit(t, monitor.Options{}, Options{})
	k.storm(50)
	h := Handler(k.c)

	// List view.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents", nil))
	if rr.Code != 200 {
		t.Fatalf("list status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("list content-type = %q", ct)
	}
	var list struct {
		Bundles  []bundleMeta `json:"bundles"`
		Captured uint64       `json:"captured"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Bundles) != 1 || list.Captured != 1 {
		t.Fatalf("list = %+v", list)
	}
	id := list.Bundles[0].ID

	// Fetch JSON.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents?id="+id, nil))
	var b Bundle
	if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil || b.ID != id {
		t.Fatalf("fetch: err=%v id=%q", err, b.ID)
	}

	// Text view.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents?id="+id+"&format=text", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("text content-type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "fallback-storm") {
		t.Fatalf("text view missing rule name: %q", rr.Body.String())
	}

	// Trace view is valid JSON.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents?id="+id+"&format=trace", nil))
	var trace any
	if err := json.Unmarshal(rr.Body.Bytes(), &trace); err != nil {
		t.Fatalf("trace view not JSON: %v", err)
	}

	// Unknown ID and unknown format.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents?id=nope", nil))
	if rr.Code != 404 {
		t.Fatalf("unknown id status = %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents?id="+id+"&format=xml", nil))
	if rr.Code != 400 {
		t.Fatalf("unknown format status = %d, want 400", rr.Code)
	}
	// Nil capturer serves an empty list.
	rr = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/incidents", nil))
	if rr.Code != 200 {
		t.Fatalf("nil capturer status = %d", rr.Code)
	}
}

// TestBundleDeterministicMarshal pins the schema promise: for fixed
// inputs the bundle serializes to identical bytes — struct fields keep
// declaration order and encoding/json sorts the map keys.
func TestBundleDeterministicMarshal(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricHotCallRequests).Add(7)
	k := newStormKit(t, monitor.Options{}, Options{Registry: reg})
	k.storm(50)

	b := k.c.Bundles()[0]
	if b.Telemetry == nil {
		t.Fatal("bundle missing telemetry snapshot")
	}
	first, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("marshal %d differs from first", i)
		}
	}
}
