package memcached

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/monitor"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// The request series the server exports under its name, pinned here as
// the wire contract (porting.App derives them from Config.Name).
const (
	MetricRequests     = "memcached_requests_total"
	MetricRequestCycle = "memcached_request_cycles"
	MetricCrossings    = "memcached_request_boundary_crossings"
)

func serveN(t *testing.T, s *Server, n int) {
	t.Helper()
	w := NewWorkload(s, 42)
	var clk sim.Clock
	for i := 0; i < n; i++ {
		w.InjectNext()
		s.ServeOne(&clk)
		if _, err := w.DrainResponse(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTelemetrySGXMode(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	serveN(t, s, 20)

	snap := reg.Snapshot()
	if got := snap.Counters[MetricRequests]; got != 20 {
		t.Errorf("%s = %d, want 20", MetricRequests, got)
	}
	// Every request enters via one ecall and issues read + sendmsg ocalls.
	if got := snap.Counters[telemetry.MetricEcalls]; got != 20 {
		t.Errorf("%s = %d, want 20", telemetry.MetricEcalls, got)
	}
	if got := snap.Counters[telemetry.MetricOcalls]; got != 40 {
		t.Errorf("%s = %d, want 40", telemetry.MetricOcalls, got)
	}
	// EENTER once per ecall; ERESUME once per ocall return.
	if got := snap.Counters[telemetry.MetricEEnter]; got != 20 {
		t.Errorf("%s = %d, want 20", telemetry.MetricEEnter, got)
	}
	if got := snap.Counters[telemetry.MetricResume]; got != 40 {
		t.Errorf("%s = %d, want 40", telemetry.MetricResume, got)
	}
	h, ok := snap.Histograms[MetricCrossings]
	if !ok || h.Count != 20 {
		t.Fatalf("%s count = %d, want 20", MetricCrossings, h.Count)
	}
	// SGX mode: 1 ecall + 2 ocalls = 3 boundary crossings per request.
	if mean := h.Mean(); mean != 3 {
		t.Errorf("crossings mean = %v, want 3", mean)
	}
	if h, ok := snap.Histograms[MetricRequestCycle]; !ok || h.Count != 20 || h.Sum == 0 {
		t.Errorf("%s = %+v, want 20 observations with nonzero sum", MetricRequestCycle, h)
	}
}

func TestTelemetryHotCallsMode(t *testing.T) {
	s := NewServer(porting.HotCalls)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	serveN(t, s, 10)

	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricHotECalls]; got != 10 {
		t.Errorf("%s = %d, want 10", telemetry.MetricHotECalls, got)
	}
	if got := snap.Counters[telemetry.MetricHotOCalls]; got != 20 {
		t.Errorf("%s = %d, want 20", telemetry.MetricHotOCalls, got)
	}
	// No SDK transitions under HotCalls: the resident worker never EENTERs.
	if got := snap.Counters[telemetry.MetricEcalls]; got != 0 {
		t.Errorf("%s = %d, want 0", telemetry.MetricEcalls, got)
	}
	if h := snap.Histograms[telemetry.MetricHotCallCycles]; h.Count != 30 {
		t.Errorf("%s count = %d, want 30", telemetry.MetricHotCallCycles, h.Count)
	}
}

func TestMetricsHandler(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	serveN(t, s, 5)

	srv := httptest.NewServer(s.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		MetricRequests + " 5",
		telemetry.MetricEcalls + " 5",
		telemetry.MetricHotECalls + " 0", // pre-registered, untouched in SGX mode
		MetricRequestCycle + "_count 5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugMux checks the full observability surface on the app port:
// /metrics, /debug/health, and /debug/monitor served side by side, with
// the health verdict reflecting a real served workload.
func TestDebugMux(t *testing.T) {
	s := NewServer(porting.HotCalls)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	// App-level HotCalls carry the serviced request work, so the
	// microbenchmark-tuned p99 objective does not apply here: every
	// default rule but the latency SLO.
	var rules []monitor.Rule
	for _, r := range monitor.DefaultRules() {
		if r.Name() != "latency-slo" {
			rules = append(rules, r)
		}
	}
	mon := s.EnableMonitor(monitor.Options{Rules: rules})
	mon.Tick() // baseline
	serveN(t, s, 25)
	mon.Tick()

	srv := httptest.NewServer(s.DebugMux())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, telemetry.MetricHotECalls+" 25") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	code, body := get("/debug/health")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/debug/health: code %d, body %q", code, body)
	}
	if code, body := get("/debug/monitor?format=text"); code != http.StatusOK || !strings.Contains(body, "health: ok") {
		t.Errorf("/debug/monitor: code %d, body %q", code, body)
	}
	if code, body := get("/debug/monitor?n=1"); code != http.StatusOK || !strings.Contains(body, `"samples"`) {
		t.Errorf("/debug/monitor JSON: code %d, body %q", code, body)
	}

	// DebugMux without a prior EnableMonitor self-enables.
	s2 := NewServer(porting.SGX)
	s2.EnableTelemetry(telemetry.New())
	rec := httptest.NewRecorder()
	s2.DebugMux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DebugMux did not self-enable the monitor: /debug/health = %d", rec.Code)
	}
}
