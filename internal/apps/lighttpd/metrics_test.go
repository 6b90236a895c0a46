package lighttpd

import (
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

// exposition returns the registry's Prometheus exposition, what
// hotbench -metrics prints.
func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestMetricsExposition(t *testing.T) {
	s := NewServer(porting.HotCallsNRZ)
	reg := wire(s)
	serveN(t, s, 3)

	body := exposition(t, reg)
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

// TestHealthAfterServedWorkload checks the monitor over a real served
// workload: the exposition counts every request, the health verdict is
// ok, and the text table says so.
func TestHealthAfterServedWorkload(t *testing.T) {
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

	if body := exposition(t, reg); !strings.Contains(body, telemetry.MetricHotECalls+" 10") {
		t.Errorf("exposition: %q", body)
	}
	if h := mon.Health(); h.Status != "ok" {
		t.Errorf("health = %+v, want ok", h)
	}
	if text := mon.RenderText(20); !strings.Contains(text, "health: ok") {
		t.Errorf("monitor text:\n%s", text)
	}
}
