// Package core implements HotCalls, the paper's contribution: an
// alternative interface for calling functions across the enclave boundary
// that replaces the 8,200-17,000 cycle SGX context switch with a shared
// un-encrypted memory word guarded by a spin lock, polled by a dedicated
// responder thread (Figure 9).  HotCalls cost ~620 cycles in most cases, a
// 13-27x improvement over SDK ecalls/ocalls.
//
// The package has two layers:
//
//   - HotCall / Responder: a real, runnable implementation of the
//     protocol using the sgx_spin_lock equivalent from internal/sdk.  It
//     is exercised by race-enabled tests and real testing.B benchmarks.
//
//   - LatencyModel and Channel (channel.go): the calibrated cycle-level
//     model the experiment harness uses to regenerate Figure 3 and the
//     application results, where latency must be measured in simulated
//     clock cycles.
package core

import (
	"errors"
	"runtime"
	"sync/atomic"

	"hotcalls/internal/flight"
	"hotcalls/internal/sdk"
	"hotcalls/internal/telemetry"
)

// CallID indexes the responder's call table, exactly like the SDK's
// ocall_index (Section 5: "the call_ID in HotCalls is comparable to the
// ocall_index variable used by the SDK").
type CallID int

// Errors returned by Call.
var (
	ErrTimeout = errors.New("core: responder busy, timeout expired (fall back to SDK call)")
	ErrStopped = errors.New("core: responder stopped")
)

// DefaultTimeout is the maximum number of submission attempts before the
// requester falls back to a regular SDK call.  The paper sets it to 10 and
// reports it never expired in their evaluation (Section 4.2, "Preventing
// starvation").
const DefaultTimeout = 10

// call states held in the shared memory word.
const (
	stateIdle uint32 = iota
	stateRequested
	stateRunning
	stateDone
)

// HotCall is the shared un-encrypted communication area of Figure 9: a
// spin lock, a state flag, the requested call's ID, and the *data pointer.
// One HotCall pairs any number of requesters with one responder.
//
// Field layout is deliberate.  The handoff group (lock, state, id, data)
// lives alone on line 0: both sides write it, but only under the lock,
// so it ping-pongs exactly once per direction per call.  The return slot
// sits on its own line so the responder publishing a result does not
// invalidate the line the next submission is spinning on.  The control
// flags and cold configuration live past a third pad: stopped/sleeping
// are read every poll iteration by both sides, and before this layout
// they shared a line with ret — every completion store invalidated the
// read-mostly flags in every spinning requester's cache.  The
// before/after BenchmarkCall pair in EXPERIMENTS.md quantifies the fix.
//
// The zero value is ready to use; start a Responder on it.
type HotCall struct {
	// Line 0: the lock-guarded handoff words (4+4+8+16 bytes).
	lock  sdk.SpinLock
	state uint32
	id    CallID
	data  interface{}
	_     [cacheLine - 32]byte

	// Line 1: the responder-written return slot.
	ret uint64
	_   [cacheLine - 8]byte

	// Line 2+: read-mostly control flags and cold configuration.
	stopped  atomic.Bool
	sleeping atomic.Bool
	wake     sdk.Cond

	// Timeout is the submission-attempt limit (DefaultTimeout if zero).
	Timeout int

	// flight is the per-callsite flight recorder, nil until SetFlight;
	// fr is the in-flight call's record, guarded by lock like the other
	// handoff words (the single slot holds at most one call).
	flight *flight.Recorder
	fr     *flight.Record

	// Telemetry handles, cached at SetTelemetry time so the hot path
	// pays one nil-check branch per counter and never a registry lookup.
	// All nil (no-op) when telemetry is disabled — the overhead budget
	// is proven by BenchmarkCall vs BenchmarkCallInstrumented.
	requests  *telemetry.Counter
	timeouts  *telemetry.Counter
	fallbacks *telemetry.Counter
	depth     *telemetry.Gauge
}

// SetTelemetry attaches request/timeout/fallback counters and the
// in-flight depth gauge from the registry.  A nil registry detaches (the
// handles become no-op nils).
func (h *HotCall) SetTelemetry(reg *telemetry.Registry) {
	h.requests = reg.Counter(telemetry.MetricHotCallRequests)
	h.timeouts = reg.Counter(telemetry.MetricHotCallTimeouts)
	h.fallbacks = reg.Counter(telemetry.MetricHotCallFallbacks)
	h.depth = reg.Gauge(telemetry.MetricPendingDepth)
}

// SetFlight attaches the flight recorder to the single-slot protocol
// (one record ring: the slot is one logical requester lane).  A nil
// recorder detaches.  Attach before starting the responder.
func (h *HotCall) SetFlight(rec *flight.Recorder) {
	if rec != nil {
		rec.Bind(1)
	}
	h.flight = rec
}

// pause is one trip through the Go scheduler, not the PAUSE instruction
// of Section 4.2 (that is cpuRelax): it is what lets the other side run
// when it shares this P.  The Timeout-counted submission loops keep it as
// their unit — n attempts offer the responder the processor n times, and
// counting 20 ns PAUSEs would shrink that patience sevenfold — as does
// the responder's yield rung.
func pause() { runtime.Gosched() }

// Call requests the responder to execute call-table entry id with data and
// waits for the result.  It returns ErrTimeout if the responder stayed
// busy for Timeout submission attempts: the caller should fall back to a
// regular SDK call (see CallOrFallback).
func (h *HotCall) Call(id CallID, data interface{}) (uint64, error) {
	return h.CallAt(flight.Callsite{}, id, data)
}

// CallAt is Call stamped with a registered flight-recorder callsite.
// Timeline records ride the lock-guarded handoff: the requester plants
// the record with the request, the responder stamps its side, and the
// requester closes the record at wait return.
func (h *HotCall) CallAt(cs flight.Callsite, id CallID, data interface{}) (uint64, error) {
	timeout := h.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	h.requests.Inc()
	var fr *flight.Record
	f := h.flight
	// Submission: acquire the lock, verify the responder is free, plant
	// the request, signal "go" by flipping the state, release the lock.
	// The attempts use TryLock so that a wedged lock (an adversary, or a
	// stuck responder) degrades to the timeout-and-fallback path instead
	// of an unbounded spin — the Section 4.2 starvation mitigation.
	// The flight record is opened under the lock: the single slot has
	// many concurrent requesters, and holding the lock satisfies the
	// recorder's single-producer lane contract.
	submitted := false
	for attempt := 0; attempt < timeout; attempt++ {
		if h.stopped.Load() {
			return 0, ErrStopped
		}
		if h.lock.TryLock() {
			if h.state == stateIdle {
				h.id = id
				h.data = data
				if f != nil && f.Arrive(cs, 0) {
					fr = f.Open(cs, 0, uint16(id))
					sleepers := 0
					if h.sleeping.Load() {
						sleepers = 1
					}
					fr.Context(1, 1, sleepers)
				}
				h.fr = fr
				h.state = stateRequested
				h.lock.Unlock()
				submitted = true
				break
			}
			h.lock.Unlock()
		}
		pause()
	}
	if !submitted {
		h.timeouts.Inc()
		f.Timeout(cs, 0, nil) // exact count; no record was ever opened
		return 0, ErrTimeout
	}
	h.depth.Inc()
	if h.sleeping.Load() {
		h.wake.Broadcast()
	}
	// Completion: poll until the responder marks the call done.
	// TryLock again, so Stop (or a lock-wedging adversary, whose only
	// power is denial of service) cannot trap the requester forever.
	for {
		if h.lock.TryLock() {
			if h.state == stateDone {
				ret := h.ret
				h.state = stateIdle
				h.data = nil
				h.fr = nil
				h.lock.Unlock()
				h.depth.Dec()
				if fr != nil {
					f.Complete(fr)
				}
				return ret, nil
			}
			h.lock.Unlock()
		}
		if h.stopped.Load() {
			h.depth.Dec()
			f.Stopped(fr)
			return 0, ErrStopped
		}
		pause()
	}
}

// CallOrFallback is Call with the paper's starvation mitigation: when the
// submission timeout expires, the request is served through the fallback
// path (a regular SDK call) instead of failing.
func (h *HotCall) CallOrFallback(id CallID, data interface{}, fallback func() (uint64, error)) (uint64, error) {
	return h.CallOrFallbackAt(flight.Callsite{}, id, data, fallback)
}

// CallOrFallbackAt is CallOrFallback with per-callsite flight
// attribution; fallback degradations count against the callsite.
func (h *HotCall) CallOrFallbackAt(cs flight.Callsite, id CallID, data interface{}, fallback func() (uint64, error)) (uint64, error) {
	ret, err := h.CallAt(cs, id, data)
	if errors.Is(err, ErrTimeout) {
		h.fallbacks.Inc()
		h.flight.Fallback(cs)
		return fallback()
	}
	return ret, err
}

// Stop shuts the responder down.  In-flight calls complete; subsequent
// calls fail with ErrStopped.
func (h *HotCall) Stop() {
	h.stopped.Store(true)
	h.wake.Broadcast()
}

// Responder is the On-Call thread of Figure 9: it polls the shared memory
// for requests and dispatches them through its call table.
type Responder struct {
	hc    *HotCall
	table []func(data interface{}) uint64

	// IdleTimeout is the number of empty polls after which the responder
	// conserves resources by sleeping on a condition variable until the
	// next requester wakes it (Section 4.2, "Conserving resources at
	// idle times").  Zero disables sleeping.
	IdleTimeout int

	polls    atomic.Uint64
	executes atomic.Uint64
	sleeps   atomic.Uint64

	// Registry mirrors of the atomics above (nil/no-op when telemetry is
	// off): the health monitor derives occupancy and spin waste from
	// their deltas without reaching into the Responder.
	pollCtr    *telemetry.Counter
	executeCtr *telemetry.Counter
	sleepCtr   *telemetry.Counter
}

// SetTelemetry attaches the responder's poll/execute/sleep counters from
// the registry.  A nil registry detaches.
func (r *Responder) SetTelemetry(reg *telemetry.Registry) {
	r.pollCtr = reg.Counter(telemetry.MetricResponderPolls)
	r.executeCtr = reg.Counter(telemetry.MetricResponderExecutes)
	r.sleepCtr = reg.Counter(telemetry.MetricResponderSleeps)
}

// NewResponder returns a responder for the shared area with the given call
// table.
func NewResponder(hc *HotCall, table []func(data interface{}) uint64) *Responder {
	return &Responder{hc: hc, table: table}
}

// Run polls until Stop is called on the HotCall.  Run the responder on its
// own goroutine — it stands in for the dedicated logical core the paper's
// design dedicates to polling.
func (r *Responder) Run() {
	h := r.hc
	idle := 0
	for {
		if h.stopped.Load() {
			return
		}
		r.polls.Add(1)
		r.pollCtr.Inc()
		h.lock.Lock()
		if h.state == stateRequested {
			id, data := h.id, h.data
			fr := h.fr
			h.state = stateRunning
			h.lock.Unlock()
			idle = 0

			f := h.flight
			if fr != nil && f != nil {
				now := f.Now()
				fr.Claim(0, now)
				fr.ExecStart(now)
			}
			var ret uint64
			if int(id) < 0 || int(id) >= len(r.table) {
				// A corrupted call_ID executes no function; the
				// requester sees a sentinel.  (Section 5: a
				// manipulated call_ID makes untrusted code run
				// the wrong function — no new vulnerability —
				// but a bounds check is free.)
				ret = ^uint64(0)
			} else {
				ret = r.table[id](data)
				r.executes.Add(1)
				r.executeCtr.Inc()
			}
			if fr != nil && f != nil {
				fr.ExecEnd(f.Now())
			}

			h.lock.Lock()
			h.ret = ret
			h.state = stateDone
			h.lock.Unlock()
			continue
		}
		h.lock.Unlock()
		idle++
		if r.IdleTimeout > 0 && idle >= r.IdleTimeout {
			// Sleep until a requester signals.
			r.sleeps.Add(1)
			r.sleepCtr.Inc()
			h.sleeping.Store(true)
			h.wake.Wait(func() bool {
				h.lock.Lock()
				pending := h.state == stateRequested
				h.lock.Unlock()
				return pending || h.stopped.Load()
			})
			h.sleeping.Store(false)
			idle = 0
			continue
		}
		pause()
	}
}

// Stats returns the responder's poll, execute, and sleep counts.
func (r *Responder) Stats() (polls, executes, sleeps uint64) {
	return r.polls.Load(), r.executes.Load(), r.sleeps.Load()
}

// Utilization is the fraction of polls that found work — the metric of
// Section 4.2, "Maximizing utilization".
func (r *Responder) Utilization() float64 {
	p := r.polls.Load()
	if p == 0 {
		return 0
	}
	return float64(r.executes.Load()) / float64(p)
}
