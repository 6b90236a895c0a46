// Package core implements HotCalls, the paper's contribution: an
// alternative interface for calling functions across the enclave boundary
// that replaces the 8,200-17,000 cycle SGX context switch with a shared
// un-encrypted memory word guarded by a spin lock, polled by a dedicated
// responder thread (Figure 9).  HotCalls cost ~620 cycles in most cases, a
// 13-27x improvement over SDK ecalls/ocalls.
//
// The package runs one protocol, the fabric of pool.go, scale.go and
// ring.go: per-requester slot rings, responders that claim posted calls
// with one compare-and-swap on a shard's cursor, one completion wait.
// HotCall / Responder (this file) are its paper-named configuration: one
// shard of one slot, one responder that never parks, and Figure 9's spin
// lock in front so that any number of requesters can share the slot.
//
// LatencyModel and Channel (channel.go) are the calibrated cycle-level
// model the experiment harness uses to regenerate Figure 3 and the
// application results, where latency must be measured in simulated clock
// cycles.
package core

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"

	"hotcalls/internal/sdk"
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

// HotCall is the shared un-encrypted communication area of Figure 9 — a
// spin lock, a call slot, the *data pointer — as a configuration of the
// fabric: the slot is a CallPool of one shard and one slot (NewResponder
// builds it), and the lock is what lets any number of requesters share
// that shard's single-producer ring.  A requester holds it for its whole
// call, so one call is in flight at a time, as in the paper.  The lock
// also guards data, the interface{} payload the fabric's typed call word
// does not carry; the slot's posted store publishes it to the responder
// with the call.
//
// The zero value is ready for NewResponder, which must return before
// the HotCall is shared between goroutines.
type HotCall struct {
	lock sdk.SpinLock
	data interface{}

	// Timeout is the submission-attempt limit (DefaultTimeout if zero).
	Timeout int

	// stopped is Stop's own record, for a Stop that comes before
	// NewResponder; req is the pool's one requester, nil until then.
	stopped atomic.Bool
	req     *Requester
}

// pause is one trip through the Go scheduler, not the PAUSE instruction
// of Section 4.2 (that is cpuRelax): it is what lets the other side run
// when it shares this P.  The Timeout-counted submission loops keep it as
// their unit — n attempts offer the responder the processor n times, and
// counting 20 ns PAUSEs would shrink that patience sevenfold — as does
// the responder's yield rung.
func pause() { runtime.Gosched() }

// Call requests the responder to execute call-table entry id with data and
// waits for the result.  It returns ErrTimeout if the slot stayed taken
// for Timeout submission attempts: the caller should fall back to a
// regular SDK call (see CallOrFallback).
//
// The attempts use TryLock so that a wedged lock (an adversary, or a call
// whose handler never returns) degrades to the timeout-and-fallback path
// instead of an unbounded spin — the Section 4.2 starvation mitigation.
// A HotCall with no responder yet is a slot that stays taken.
func (h *HotCall) Call(id CallID, data interface{}) (uint64, error) {
	timeout := h.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	for attempt := 0; attempt < timeout; attempt++ {
		if h.stopped.Load() {
			return 0, ErrStopped
		}
		if h.req != nil && h.lock.TryLock() {
			h.data = data
			ret, err := h.req.Call(id, 0)
			if err != nil {
				// Stopped in flight: the responder may yet read the
				// payload, so the lock is never released and every later
				// caller is answered by the stopped check above.
				return 0, err
			}
			h.data = nil
			h.lock.Unlock()
			return ret, nil
		}
		pause()
	}
	return 0, ErrTimeout
}

// CallOrFallback is Call with the paper's starvation mitigation: when the
// submission timeout expires, the request is served through the fallback
// path (a regular SDK call) instead of failing.
func (h *HotCall) CallOrFallback(id CallID, data interface{}, fallback func() (uint64, error)) (uint64, error) {
	ret, err := h.Call(id, data)
	if errors.Is(err, ErrTimeout) {
		return fallback()
	}
	return ret, err
}

// Stop shuts the responder down: Run returns after its current call, and
// in-flight and subsequent calls fail with ErrStopped.
func (h *HotCall) Stop() {
	h.stopped.Store(true)
	if h.req != nil {
		h.req.pool.stopped.Store(true)
	}
}

// Responder is the On-Call thread of Figure 9: the fabric's responder
// loop over the HotCall's one shard, dispatching through its call table.
type Responder struct{ pool *CallPool }

// NewResponder builds the HotCall's slot — a fabric of one shard, one
// slot and one responder — over the given call table and returns its
// responder.  An out-of-table call_ID executes nothing and returns the
// fabric's ^0 sentinel (Section 5: a manipulated call_ID makes untrusted
// code run the wrong function — no new vulnerability — but a bounds
// check is free).
func NewResponder(hc *HotCall, table []func(data interface{}) uint64) *Responder {
	fns := make([]PoolFunc, len(table))
	for i, fn := range table {
		fns[i] = func(int, uint64) uint64 { return fn(hc.data) }
	}
	// The paper's polling loop: one look at the slot per trip through
	// the scheduler (a requester sharing this P cannot post during a hot
	// re-scan), on a yield rung too long to climb — the paper dedicates a
	// logical core to polling, so this responder stays on it.  Parking at
	// idle, and the inline run that answers it, are the fabric's.
	const neverPark = math.MaxInt / 2
	p := NewCallPool(fns, PoolOptions{Shards: 1, SlotsPerShard: 1, MaxResponders: 1})
	p.policy.spin, p.policy.yield = 1, neverPark
	if hc.stopped.Load() {
		p.stopped.Store(true)
	}
	hc.req = p.Requester()
	return &Responder{pool: p}
}

// Run polls until Stop is called on the HotCall.  Run the responder on its
// own goroutine — it stands in for the dedicated logical core the paper's
// design dedicates to polling.
func (r *Responder) Run() {
	r.pool.enter()
	r.pool.runResponder(0)
}

// Stats returns the responder's slot-inspection and claimed-call counts
// (CallPool.Stats), exact once Run has returned.
func (r *Responder) Stats() (polls, executes uint64) { return r.pool.Stats() }

// Utilization is the fraction of polls that found work — the metric of
// Section 4.2, "Maximizing utilization".
func (r *Responder) Utilization() float64 {
	polls, executes := r.Stats()
	if polls == 0 {
		return 0
	}
	return float64(executes) / float64(polls)
}
