package bench

import "hotcalls/internal/telemetry"

// tel is the harness-wide observability registry.  Nil (all handles
// no-op) unless cmd/hotbench attaches one via SetTelemetry for the
// -metrics flag.
var tel *telemetry.Registry

// SetTelemetry attaches an observability registry to every fixture the
// experiments build from here on.  The standard boundary metrics are
// pre-registered so an exposition dump always carries the full set, even
// for experiments that never exercise some of the paths.
func SetTelemetry(r *telemetry.Registry) {
	tel = r
	telemetry.RegisterStandard(r)
}
