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

// wire attaches a registry holding the standard names to the server's
// whole simulated stack — the one way a simulated server is observed.
func wire(s *Server) *telemetry.Registry {
	reg := telemetry.New()
	telemetry.RegisterStandard(reg)
	s.SetTelemetry(reg)
	return reg
}

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
	reg := wire(s)
	serveN(t, s, 10)

	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricEcalls]; got != 10 {
		t.Errorf("%s = %d, want 10", telemetry.MetricEcalls, got)
	}
	// Each connection issues at least accept, inet_ntop, inet_addr,
	// ioctl, open64, writev, sendfile64, shutdown, close — plus the
	// credit-scheduled read/fcntl group.
	ocalls := snap.Counters[telemetry.MetricOcalls]
	if ocalls < 90 {
		t.Errorf("%s = %d, want >= 90", telemetry.MetricOcalls, ocalls)
	}
	// One EEXIT per ecall return and per ocall, one ERESUME per ocall
	// return.
	if got := snap.Counters[telemetry.MetricEExit]; got != 10+ocalls {
		t.Errorf("%s = %d, want %d", telemetry.MetricEExit, got, 10+ocalls)
	}
	if got := snap.Counters[telemetry.MetricResume]; got != ocalls {
		t.Errorf("%s = %d, want %d", telemetry.MetricResume, got, ocalls)
	}
}

func TestTelemetryHotCallsMode(t *testing.T) {
	s := NewServer(porting.HotCalls)
	reg := wire(s)
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

// debugServer serves the server's registry the way hotbench -monitor
// does: monitor.New over it, monitor.Mux in front.
func debugServer(reg *telemetry.Registry, mon *monitor.Monitor) (*httptest.Server, func(t *testing.T, path string) (int, string)) {
	srv := httptest.NewServer(monitor.Mux(reg, mon))
	return srv, func(t *testing.T, path string) (int, string) {
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
}

func TestMetricsHandler(t *testing.T) {
	s := NewServer(porting.HotCallsNRZ)
	reg := wire(s)
	serveN(t, s, 3)

	srv, get := debugServer(reg, monitor.New(reg, monitor.Options{}))
	defer srv.Close()
	code, body := get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		telemetry.MetricHotECalls + " 3",
		telemetry.MetricEcalls + " 0", // pre-registered, untouched under HotCalls
		telemetry.MetricHotCallCycles + "_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugMux checks /metrics, /debug/health, and /debug/monitor served
// side by side after a real workload.
func TestDebugMux(t *testing.T) {
	s := NewServer(porting.HotCalls)
	reg := wire(s)
	// App-level HotCalls carry the serviced request work, so the
	// microbenchmark-tuned p99 objective does not apply here: every
	// default rule but the latency SLO.
	var rules []monitor.Rule
	for _, r := range monitor.DefaultRules() {
		if r.Name() != "latency-slo" {
			rules = append(rules, r)
		}
	}
	mon := monitor.New(reg, monitor.Options{Rules: rules})
	mon.Tick() // baseline
	serveN(t, s, 10)
	mon.Tick()

	srv, get := debugServer(reg, mon)
	defer srv.Close()
	if code, body := get(t, "/metrics"); code != http.StatusOK || !strings.Contains(body, telemetry.MetricHotECalls+" 10") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get(t, "/debug/health"); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/debug/health: code %d, body %q", code, body)
	}
	if code, body := get(t, "/debug/monitor?format=text"); code != http.StatusOK || !strings.Contains(body, "health: ok") {
		t.Errorf("/debug/monitor: code %d, body %q", code, body)
	}
}
