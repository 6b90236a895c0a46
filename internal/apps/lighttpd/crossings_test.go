package lighttpd

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
	crossings := traceCrossings(t, s)
	serveN(t, s, 10)

	got := crossings()
	if got[telemetry.KindEcall] != 10 {
		t.Errorf("ecall spans = %d, want 10", got[telemetry.KindEcall])
	}
	// Each connection issues at least accept, inet_ntop, inet_addr,
	// ioctl, open64, writev, sendfile64, shutdown, close — plus the
	// credit-scheduled read/fcntl group.
	ocalls := got[telemetry.KindOcall]
	if ocalls < 90 {
		t.Errorf("ocall spans = %d, want >= 90", ocalls)
	}
	// One EENTER per ecall, one EEXIT per ecall return and per ocall,
	// one ERESUME per ocall return.
	if got[telemetry.KindEEnter] != 10 {
		t.Errorf("EENTER spans = %d, want 10", got[telemetry.KindEEnter])
	}
	if got[telemetry.KindEExit] != 10+ocalls {
		t.Errorf("EEXIT spans = %d, want %d", got[telemetry.KindEExit], 10+ocalls)
	}
	if got[telemetry.KindEResume] != ocalls {
		t.Errorf("ERESUME spans = %d, want %d", got[telemetry.KindEResume], ocalls)
	}
}

// TestTelemetryHotCallsMode: under HotCalls each connection's ecall and
// its ocalls run on the app's edge-call counters, and the trace shows no
// SDK transition.
func TestTelemetryHotCallsMode(t *testing.T) {
	s := NewServer(porting.HotCalls)
	crossings := traceCrossings(t, s)
	before := edgeCalls(s)
	serveN(t, s, 10)

	if got := edgeCalls(s) - before; got < 100 {
		t.Errorf("edge calls = %d, want >= 100 (10 ecalls, >= 90 ocalls)", got)
	}
	if got := crossings()[telemetry.KindEEnter]; got != 0 {
		t.Errorf("EENTER spans = %d, want 0 (no SDK transitions under HotCalls)", got)
	}
}

// edgeCalls sums the app's per-edge-call counters.
func edgeCalls(s *Server) (n uint64) {
	for _, c := range s.App.Counters() {
		n += c
	}
	return n
}
