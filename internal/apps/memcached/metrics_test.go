package memcached

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

// TestMetricsExposition checks the exposition over a served workload:
// the standard names are all present, untouched ones at zero.
func TestMetricsExposition(t *testing.T) {
	s := NewServer(porting.SGX)
	reg := wire(s)
	serveN(t, s, 5)

	body := exposition(t, reg)
	for _, want := range []string{
		telemetry.MetricEcalls + " 5",
		telemetry.MetricHotECalls + " 0", // pre-registered, untouched in SGX mode
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
	serveN(t, s, 25)
	mon.Tick()

	if body := exposition(t, reg); !strings.Contains(body, telemetry.MetricHotECalls+" 25") {
		t.Errorf("exposition: %q", body)
	}
	if h := mon.Health(); h.Status != "ok" {
		t.Errorf("health = %+v, want ok", h)
	}
	if text := mon.RenderText(20); !strings.Contains(text, "health: ok") {
		t.Errorf("monitor text:\n%s", text)
	}
	if w := mon.Window(1); len(w) != 1 || w[0].HotECalls != 25 {
		t.Errorf("window = %+v, want the newest sample with 25 HotECalls", w)
	}
}
