// Package telemetry is the observability subsystem: cycle-accurate
// counters and boundary-event tracing for the whole enclave stack.  The paper's argument rests on seeing where cycles go at
// the enclave boundary (Figure 3's CDFs, Table 1's medians, the ocall
// breakdowns); this package makes the same visibility available on a live
// workload instead of only through one-shot bench aggregates.
//
// Design constraints, in order:
//
//  1. A disabled registry must cost (near) nothing.  Every handle type
//     (*Counter, *Tracer) is nil-safe: methods on a nil
//     receiver are no-ops that inline to a single branch.  Instrumented
//     code caches handles once at attach time and calls them
//     unconditionally, so the uninstrumented HotCall path stays at its
//     ~620-cycle budget.
//
//  2. The hot path takes no locks.  Counters are sharded atomics (one
//     cache line per shard).  Only the tracer, which is opt-in and
//     inherently heavier-weight, serialises writers with a mutex around
//     its ring.
//
//  3. Everything is mergeable and exportable: snapshots are plain
//     structs, and the registry renders Prometheus text exposition
//     (WritePrometheus).  The tracer's events feed the cycle-attribution
//     profiler (internal/profile).
//
// Timestamps are simulated cycles from sim.Clock.
package telemetry

import (
	"sort"
	"sync"
)

// Registry holds named counters plus an optional tracer.
// A nil *Registry is a valid disabled registry: all accessors return nil
// handles whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	tracer   *Tracer
}

// New returns an empty enabled registry (tracing off until EnableDeepTracing).
func New() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use.  On a nil
// registry it returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// EnableDeepTracing attaches a bounded ring-buffer tracer of the given
// capacity (in events) and returns it: instrumented code emits
// per-phase (marshal, spin, handler) and per-memory-operation events in
// addition to the boundary spans, which is what the profiler in
// internal/profile consumes.  Calling it again replaces the ring.
// Instrumented code re-reads the handle through Tracer(), so enable
// tracing before attaching the registry to a stack.
func (r *Registry) EnableDeepTracing(capacity int) *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = NewTracer(capacity)
	return r.tracer
}

// Tracer returns the attached tracer, or nil when tracing is disabled or
// the registry itself is nil.  A nil *Tracer is a valid no-op tracer.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Snapshot is a point-in-time copy of every metric in the registry,
// safe to read while writers keep going.
type Snapshot struct {
	Counters map[string]uint64
}

// Snapshot captures all counters.  On a nil registry it returns an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: make(map[string]uint64)}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	r.mu.Unlock()
	for _, c := range counters {
		snap.Counters[c.name] = c.Load()
	}
	return snap
}

// sortedNames returns map keys in stable order for deterministic export.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
