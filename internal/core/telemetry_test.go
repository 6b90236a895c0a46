package core

import (
	"errors"
	"testing"

	"hotcalls/internal/telemetry"
)

// wantCounters checks every counter the registry holds against want
// (absent names want zero).
func wantCounters(t *testing.T, reg *telemetry.Registry, want map[string]uint64) {
	t.Helper()
	for name, got := range reg.Snapshot().Counters {
		if got != want[name] {
			t.Errorf("%s = %d, want %d", name, got, want[name])
		}
	}
}

// TestTimeoutFallbackTelemetry covers the starvation-mitigation path end
// to end with the registry attached: a window no responder drains must
// surface as ErrTimeout and route CallOrFallback to the SDK fallback,
// which the fabric does not count as one of its runs.
func TestTimeoutFallbackTelemetry(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 5})
	p.SetTelemetry(reg)
	r := p.Requester()
	if _, err := submitOne(r, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Call(0, 1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	ret, err := r.CallOrFallback(VecCall{Data: 2}, func() (uint64, error) { return 777, nil })
	if err != nil || ret != 777 {
		t.Fatalf("fallback = (%d, %v)", ret, err)
	}
	wantCounters(t, reg, nil)
	if _, execs := p.Stats(); execs != 0 {
		t.Fatalf("executes = %d with no responder started", execs)
	}
}

// TestCallSuccessTelemetry checks the happy path: every successful
// CallOrFallback ran once in the fabric, by a responder or inline, and
// none took the fallback.
func TestCallSuccessTelemetry(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.SetTelemetry(reg)
	p.Start()
	r := p.Requester()
	const calls = 25
	for i := uint64(0); i < calls; i++ {
		if ret, err := r.CallOrFallback(VecCall{Data: i}, nil); err != nil || ret != i {
			t.Fatalf("CallOrFallback(%d) = (%d, %v)", i, ret, err)
		}
	}
	p.Stop()
	if _, execs := p.Stats(); execs+reg.Counter(telemetry.MetricHotCallInline).Load() != calls {
		t.Fatalf("executes %d + inline %d, want %d", execs, reg.Counter(telemetry.MetricHotCallInline).Load(), calls)
	}
}

// TestSetTelemetryNilDetaches verifies a nil registry restores the
// zero-cost disabled state: a call run inline, which an attached
// registry counts, leaves the detached one at zero.
func TestSetTelemetryNilDetaches(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.SetTelemetry(reg)
	p.SetTelemetry(nil)
	p.Start()
	defer p.Stop()
	waitParked(t, p)
	if _, err := p.Requester().Call(0, 0); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, reg, nil)
}
