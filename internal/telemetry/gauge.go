package telemetry

import "sync/atomic"

// Gauge is a point-in-time reading: queue depth, responder occupancy,
// EPC resident pages — values that go up and down, unlike the monotonic
// Counter.  Writers are expected to be few (one owner per gauge), so a
// single atomic slot suffices; there is no sharding.  A nil *Gauge is a
// valid disabled gauge: Set/Add are no-ops and Load returns 0, the same
// fast-path contract as Counter and Histogram.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the current reading.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current reading.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}
