package lighttpd

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
	MetricRequests     = "lighttpd_requests_total"
	MetricRequestCycle = "lighttpd_request_cycles"
	MetricCrossings    = "lighttpd_request_boundary_crossings"
)

func serveN(t *testing.T, s *Server, n int) {
	t.Helper()
	var clk sim.Clock
	for i := 0; i < n; i++ {
		client := s.InjectRequest("/")
		s.ServeOne(&clk)
		for {
			if _, ok := s.App.Kernel.TakeRX(client); !ok {
				break
			}
		}
	}
}

func TestTelemetrySGXMode(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	serveN(t, s, 10)

	snap := reg.Snapshot()
	if got := snap.Counters[MetricRequests]; got != 10 {
		t.Errorf("%s = %d, want 10", MetricRequests, got)
	}
	if got := snap.Counters[telemetry.MetricEcalls]; got != 10 {
		t.Errorf("%s = %d, want 10", telemetry.MetricEcalls, got)
	}
	// Each connection issues at least accept, inet_ntop, inet_addr,
	// ioctl, open64, writev, sendfile64, shutdown, close — plus the
	// credit-scheduled read/fcntl group.
	if got := snap.Counters[telemetry.MetricOcalls]; got < 90 {
		t.Errorf("%s = %d, want >= 90", telemetry.MetricOcalls, got)
	}
	h, ok := snap.Histograms[MetricCrossings]
	if !ok || h.Count != 10 {
		t.Fatalf("%s count = %d, want 10", MetricCrossings, h.Count)
	}
	// Crossings per request = 1 ecall + the request's ocalls: always
	// double digits for this call sequence.
	if mean := h.Mean(); mean < 10 {
		t.Errorf("crossings mean = %v, want >= 10", mean)
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
	if got := snap.Counters[telemetry.MetricHotOCalls]; got < 90 {
		t.Errorf("%s = %d, want >= 90", telemetry.MetricHotOCalls, got)
	}
	if got := snap.Counters[telemetry.MetricEEnter]; got != 0 {
		t.Errorf("%s = %d, want 0 (no SDK transitions under HotCalls)", telemetry.MetricEEnter, got)
	}
}

func TestMetricsHandler(t *testing.T) {
	s := NewServer(porting.HotCallsNRZ)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	serveN(t, s, 3)

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
		MetricRequests + " 3",
		telemetry.MetricHotECalls + " 3",
		telemetry.MetricEcalls + " 0", // pre-registered, untouched under HotCalls
		MetricRequestCycle + "_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugMux checks /metrics, /debug/health, and /debug/monitor served
// side by side on the app port after a real workload.
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
	serveN(t, s, 10)
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

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, telemetry.MetricHotECalls+" 10") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get("/debug/health"); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/debug/health: code %d, body %q", code, body)
	}
	if code, body := get("/debug/monitor?format=text"); code != http.StatusOK || !strings.Contains(body, "health: ok") {
		t.Errorf("/debug/monitor: code %d, body %q", code, body)
	}
}
