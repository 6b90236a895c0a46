package memcached

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// traceCrossings attaches one tracer to the server's SGX platform (leaf
// instructions and memory) and SDK runtime, and returns a reader that
// counts its events by kind.
func traceCrossings(t *testing.T, s *Server) func() map[telemetry.Kind]uint64 {
	const capacity = 1 << 18
	tr := telemetry.NewTracer(capacity)
	s.Platform.SetTracer(tr)
	s.RT.SetTracer(tr)
	return func() map[telemetry.Kind]uint64 {
		events := tr.Events()
		if len(events) == capacity {
			t.Fatal("trace ring full: older events may be overwritten")
		}
		n := map[telemetry.Kind]uint64{}
		for _, ev := range events {
			n[ev.Kind]++
		}
		return n
	}
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
	crossings := traceCrossings(t, s)
	serveN(t, s, 20)

	got := crossings()
	for _, c := range []struct {
		kind telemetry.Kind
		name string
		want uint64
	}{
		{telemetry.KindEcall, "ecall", 20},
		{telemetry.KindOcall, "ocall", 40},
		{telemetry.KindEEnter, "EENTER", 20},   // once per ecall
		{telemetry.KindEExit, "EEXIT", 60},     // once per ecall return and per ocall
		{telemetry.KindEResume, "ERESUME", 40}, // once per ocall return
	} {
		if got[c.kind] != c.want {
			t.Errorf("%s spans = %d, want %d", c.name, got[c.kind], c.want)
		}
	}
}

// TestTelemetryHotCallsMode: under HotCalls every request is one hot
// ecall and two hot ocalls on the app's edge-call counters, and the trace
// shows no SDK transition — the resident worker never EENTERs.
func TestTelemetryHotCallsMode(t *testing.T) {
	s := NewServer(porting.HotCalls)
	crossings := traceCrossings(t, s)
	before := edgeCalls(s)
	serveN(t, s, 10)

	if got := edgeCalls(s) - before; got != 30 {
		t.Errorf("edge calls = %d, want 30", got)
	}
	got := crossings()
	if got[telemetry.KindEcall] != 0 || got[telemetry.KindEEnter] != 0 {
		t.Errorf("ecall spans = %d, EENTER spans = %d, want 0 and 0", got[telemetry.KindEcall], got[telemetry.KindEEnter])
	}
}

// edgeCalls sums the app's per-edge-call counters.
func edgeCalls(s *Server) (n uint64) {
	for _, c := range s.App.Counters() {
		n += c
	}
	return n
}
