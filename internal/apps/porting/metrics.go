package porting

// The simulated servers' request-level observability: what a port adds is
// its name.

import (
	"net/http"

	"hotcalls/internal/monitor"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// requestTel caches the per-request telemetry handles; all nil (no-op)
// until EnableTelemetry attaches a registry.
type requestTel struct {
	requests  *telemetry.Counter
	reqCycles *telemetry.Histogram
	crossings *telemetry.Histogram

	// Cached boundary counters, read before/after each request to
	// attribute crossings per request (the Table 2 instrumentation,
	// live instead of post-hoc).
	ecalls, ocalls, hotEcalls, hotOcalls *telemetry.Counter
}

// boundaryCount sums every boundary-crossing counter the app's stack can
// increment.  Zero when telemetry is detached (nil handles load 0).
func (t *requestTel) boundaryCount() uint64 {
	return t.ecalls.Load() + t.ocalls.Load() + t.hotEcalls.Load() + t.hotOcalls.Load()
}

// EnableTelemetry attaches the observability registry to the whole stack
// (SetTelemetry) and registers the per-request metrics beside the
// standard boundary set, named after the app (Config.Name):
// <name>_requests_total, the <name>_request_cycles latency histogram, and
// the <name>_request_boundary_crossings histogram.
func (a *App) EnableTelemetry(reg *telemetry.Registry) {
	telemetry.RegisterStandard(reg)
	a.SetTelemetry(reg)
	a.tel = requestTel{
		requests:  reg.Counter(a.name + "_requests_total"),
		reqCycles: reg.Histogram(a.name + "_request_cycles"),
		crossings: reg.Histogram(a.name + "_request_boundary_crossings"),
		ecalls:    reg.Counter(telemetry.MetricEcalls),
		ocalls:    reg.Counter(telemetry.MetricOcalls),
		hotEcalls: reg.Counter(telemetry.MetricHotECalls),
		hotOcalls: reg.Counter(telemetry.MetricHotOCalls),
	}
}

// ServeRequest is Call for the entry point that serves one request, with
// the request booked: counted, its cycles observed in the histogram, its
// boundary crossings attributed.  Every handle is a no-op until enabled.
func (a *App) ServeRequest(clk *sim.Clock, name string, args ...sdk.Arg) (uint64, error) {
	start := clk.Now()
	crossed := a.tel.boundaryCount()
	ret, err := a.Call(clk, name, args...)
	if err != nil {
		return ret, err
	}
	a.tel.requests.Inc()
	a.tel.reqCycles.ObserveSince(start, clk.Now())
	a.tel.crossings.Observe(a.tel.boundaryCount() - crossed)
	return ret, nil
}

// MetricsHandler serves the attached registry in Prometheus text format
// (the /metrics endpoint).  Usable even before EnableTelemetry: a nil
// registry serves an empty exposition.
func (a *App) MetricsHandler() http.Handler { return telemetry.Handler(a.Tel) }

// EnableMonitor attaches a continuous health monitor over the app's
// registry (EnableTelemetry must run first so the registry exists) and
// returns it; the caller decides whether to Start wall-clock sampling or
// drive it with Tick.  Idempotent: repeat calls return the same monitor.
func (a *App) EnableMonitor(opts monitor.Options) *monitor.Monitor {
	if a.mon == nil {
		a.mon = monitor.New(a.Tel, opts)
	}
	return a.mon
}

// DebugMux serves the full observability surface on the app port:
// /metrics (Prometheus exposition), a /debug/ index, /debug/health
// (503 when critical), and /debug/monitor (recent samples + alerts).  It
// enables the monitor with defaults if EnableMonitor was not called.
func (a *App) DebugMux() *monitor.DebugMux {
	return monitor.Mux(a.Tel, a.EnableMonitor(monitor.Options{}))
}
