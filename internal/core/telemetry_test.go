package core

import (
	"errors"
	"testing"

	"hotcalls/internal/telemetry"
)

// wantTraffic checks the registry's request, timeout and fallback
// counters, the three that tell the starvation story of Section 4.2.
func wantTraffic(t *testing.T, reg *telemetry.Registry, requests, timeouts, fallbacks uint64) {
	t.Helper()
	for name, want := range map[string]uint64{
		telemetry.MetricHotCallRequests:  requests,
		telemetry.MetricHotCallTimeouts:  timeouts,
		telemetry.MetricHotCallFallbacks: fallbacks,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestTimeoutFallbackTelemetry covers the starvation-mitigation path end
// to end with the registry attached: a window no responder drains must
// surface as ErrTimeout, route CallOrFallback to the SDK fallback, and
// leave the counters telling that story — the fallback where it happened.
func TestTimeoutFallbackTelemetry(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 5})
	p.SetTelemetry(reg)
	r := p.Requester()
	if _, err := r.Submit(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Call(0, 1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	wantTraffic(t, reg, 2, 1, 0)

	ret, err := r.CallOrFallback(0, 2, func() (uint64, error) { return 777, nil })
	if err != nil || ret != 777 {
		t.Fatalf("fallback = (%d, %v)", ret, err)
	}
	wantTraffic(t, reg, 3, 2, 1)
}

// TestCallSuccessTelemetry checks the happy path: successful calls count
// as requests only — no timeouts, no fallbacks.
func TestCallSuccessTelemetry(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.SetTelemetry(reg)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	const calls = 25
	for i := uint64(0); i < calls; i++ {
		if ret, err := r.CallOrFallback(0, i, nil); err != nil || ret != i {
			t.Fatalf("CallOrFallback(0, %d) = (%d, %v)", i, ret, err)
		}
	}
	wantTraffic(t, reg, calls, 0, 0)
}

// TestSetTelemetryNilDetaches verifies a nil registry restores the
// zero-cost disabled state.
func TestSetTelemetryNilDetaches(t *testing.T) {
	reg := telemetry.New()
	p := NewCallPool(echoTable(), testPool(1, 1))
	p.SetTelemetry(reg)
	p.SetTelemetry(nil)
	p.Start()
	defer p.Stop()
	if _, err := p.Requester().Call(0, 0); err != nil {
		t.Fatal(err)
	}
	wantTraffic(t, reg, 0, 0, 0)
}
