package core

import (
	"errors"
	"testing"

	"hotcalls/internal/telemetry"
)

// TestTimeoutFallbackTelemetry covers the starvation-mitigation path end
// to end with the observability registry attached: a wedged responder
// must surface as ErrTimeout, route CallOrFallback to the SDK fallback,
// and leave the request/timeout/fallback counters telling that story.
func TestTimeoutFallbackTelemetry(t *testing.T) {
	reg := telemetry.New()
	var hc HotCall
	hc.SetTelemetry(reg)
	hc.Timeout = 5
	hc.lock.Lock()
	hc.state = stateRunning // responder "busy forever"
	hc.lock.Unlock()

	if _, err := hc.Call(0, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := reg.Counter(telemetry.MetricHotCallRequests).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricHotCallRequests, got)
	}
	if got := reg.Counter(telemetry.MetricHotCallTimeouts).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricHotCallTimeouts, got)
	}
	if got := reg.Counter(telemetry.MetricHotCallFallbacks).Load(); got != 0 {
		t.Errorf("%s = %d before any fallback, want 0", telemetry.MetricHotCallFallbacks, got)
	}

	fallbackRan := false
	ret, err := hc.CallOrFallback(0, nil, func() (uint64, error) {
		fallbackRan = true
		return 777, nil
	})
	if err != nil || ret != 777 {
		t.Fatalf("fallback = (%d, %v)", ret, err)
	}
	if !fallbackRan {
		t.Fatal("fallback did not run on timeout")
	}
	if got := reg.Counter(telemetry.MetricHotCallRequests).Load(); got != 2 {
		t.Errorf("%s = %d, want 2", telemetry.MetricHotCallRequests, got)
	}
	if got := reg.Counter(telemetry.MetricHotCallTimeouts).Load(); got != 2 {
		t.Errorf("%s = %d, want 2", telemetry.MetricHotCallTimeouts, got)
	}
	if got := reg.Counter(telemetry.MetricHotCallFallbacks).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricHotCallFallbacks, got)
	}
}

// TestCallSuccessTelemetry checks the happy path: successful calls count
// as requests only — no timeouts, no fallbacks.
func TestCallSuccessTelemetry(t *testing.T) {
	reg := telemetry.New()
	hc := patientHotCall()
	hc.SetTelemetry(reg)
	_, wg := startResponder(hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) + 1 },
	})
	defer func() { hc.Stop(); wg.Wait() }()

	const calls = 25
	for i := uint64(0); i < calls; i++ {
		if ret, err := hc.Call(0, i); err != nil || ret != i+1 {
			t.Fatalf("Call(0, %d) = (%d, %v)", i, ret, err)
		}
	}
	if got := reg.Counter(telemetry.MetricHotCallRequests).Load(); got != calls {
		t.Errorf("%s = %d, want %d", telemetry.MetricHotCallRequests, got, calls)
	}
	if got := reg.Counter(telemetry.MetricHotCallTimeouts).Load(); got != 0 {
		t.Errorf("%s = %d, want 0", telemetry.MetricHotCallTimeouts, got)
	}
	if got := reg.Counter(telemetry.MetricHotCallFallbacks).Load(); got != 0 {
		t.Errorf("%s = %d, want 0", telemetry.MetricHotCallFallbacks, got)
	}
}

// TestSetTelemetryNilDetaches verifies a nil registry restores the
// zero-cost disabled state.
func TestSetTelemetryNilDetaches(t *testing.T) {
	reg := telemetry.New()
	hc := patientHotCall()
	hc.SetTelemetry(reg)
	hc.SetTelemetry(nil)
	_, wg := startResponder(hc, []func(interface{}) uint64{
		func(interface{}) uint64 { return 0 },
	})
	defer func() { hc.Stop(); wg.Wait() }()
	if _, err := hc.Call(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.MetricHotCallRequests).Load(); got != 0 {
		t.Errorf("detached registry still counted %d requests", got)
	}
}
