package memcached

import (
	"strings"
	"testing"

	"hotcalls/internal/apps/porting"
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

// TestTelemetryHotCallsMode: under HotCalls every request is one hot
// ecall and two hot ocalls on the app's edge-call counters, and the
// registry sees no SDK transition — the resident worker never EENTERs.
func TestTelemetryHotCallsMode(t *testing.T) {
	s := NewServer(porting.HotCalls)
	reg := wire(s)
	before := edgeCalls(s)
	serveN(t, s, 10)

	if got := edgeCalls(s) - before; got != 30 {
		t.Errorf("edge calls = %d, want 30", got)
	}
	snap := reg.Snapshot()
	for _, name := range []string{telemetry.MetricEcalls, telemetry.MetricEEnter} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// edgeCalls sums the app's per-edge-call counters.
func edgeCalls(s *Server) (n uint64) {
	for _, c := range s.App.Counters() {
		n += c
	}
	return n
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
		telemetry.MetricHotCallInline + " 0", // pre-registered, untouched by a simulated server
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
