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

// TestTelemetrySGXMode pins the simulator's instruction counts for the
// SDK interface: every request enters through one ecall and issues a
// read and a sendmsg ocall.
func TestTelemetrySGXMode(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := wire(s)
	serveN(t, s, 20)

	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{telemetry.MetricEcalls, 20},
		{telemetry.MetricOcalls, 40},
		{telemetry.MetricEEnter, 20}, // once per ecall
		{telemetry.MetricEExit, 60},  // once per ecall return and per ocall
		{telemetry.MetricResume, 40}, // once per ocall return
	} {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
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

// debugServer serves the server's registry through the simulated
// servers' one wiring: monitor.New over it, monitor.Mux in front.
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

// TestMetricsHandler checks /metrics over a served workload: the
// standard names are all present, untouched ones at zero.
func TestMetricsHandler(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := wire(s)
	serveN(t, s, 5)

	srv, get := debugServer(reg, monitor.New(reg, monitor.Options{}))
	defer srv.Close()
	code, body := get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		telemetry.MetricEcalls + " 5",
		telemetry.MetricHotECalls + " 0", // pre-registered, untouched in SGX mode
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugMux checks the health verdict over a real served workload:
// /debug/health and /debug/monitor beside /metrics.
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
	serveN(t, s, 25)
	mon.Tick()

	srv, get := debugServer(reg, mon)
	defer srv.Close()
	if code, body := get(t, "/metrics"); code != http.StatusOK || !strings.Contains(body, telemetry.MetricHotECalls+" 25") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get(t, "/debug/health"); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/debug/health: code %d, body %q", code, body)
	}
	if code, body := get(t, "/debug/monitor?format=text"); code != http.StatusOK || !strings.Contains(body, "health: ok") {
		t.Errorf("/debug/monitor: code %d, body %q", code, body)
	}
	if code, body := get(t, "/debug/monitor?n=1"); code != http.StatusOK || !strings.Contains(body, `"samples"`) {
		t.Errorf("/debug/monitor JSON: code %d, body %q", code, body)
	}
}
