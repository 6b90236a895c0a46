package core

// This file extends HotCalls beyond the paper with asynchronous
// submission, the direction the idea later took in Intel's SDK "switchless
// calls": a requester that does not need the result immediately can submit
// the call, keep computing inside the enclave, and collect the result
// later.  The synchronization protocol and security argument are unchanged
// — the same spin lock, state word, call_ID, and data pointer — only the
// requester-side completion wait is deferred.

import "errors"

// ErrNotComplete is returned by Pending.Poll while the call is in flight.
var ErrNotComplete = errors.New("core: async call not complete")

// Pending is a handle to an asynchronous HotCall.
type Pending struct {
	h        *HotCall
	done     bool
	released bool
	ret      uint64
}

// release decrements the in-flight depth gauge exactly once per Pending,
// whether the call completed or was abandoned by Stop.
func (p *Pending) release() {
	if !p.released {
		p.released = true
		p.h.depth.Dec()
	}
}

// Submit plants a request without waiting for completion.  It returns
// ErrTimeout when the responder slot stays busy for the configured number
// of attempts (fall back to a synchronous SDK call), and ErrStopped after
// Stop.
//
// Only one call — synchronous or asynchronous — may be in flight per
// HotCall slot; collect the Pending before reusing the slot.
func (h *HotCall) Submit(id CallID, data interface{}) (*Pending, error) {
	timeout := h.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	h.requests.Inc()
	for attempt := 0; attempt < timeout; attempt++ {
		if h.stopped.Load() {
			return nil, ErrStopped
		}
		if h.lock.TryLock() {
			if h.state == stateIdle {
				h.id = id
				h.data = data
				h.state = stateRequested
				h.lock.Unlock()
				h.depth.Inc()
				if h.sleeping.Load() {
					h.wake.Broadcast()
				}
				return &Pending{h: h}, nil
			}
			h.lock.Unlock()
		}
		pause()
	}
	h.timeouts.Inc()
	return nil, ErrTimeout
}

// Poll checks for completion without blocking.  Once it returns a result,
// the slot is free for the next call.
func (p *Pending) Poll() (uint64, error) {
	if p.done {
		return p.ret, nil
	}
	if p.h.stopped.Load() {
		p.release()
		return 0, ErrStopped
	}
	if !p.h.lock.TryLock() {
		return 0, ErrNotComplete
	}
	if p.h.state != stateDone {
		p.h.lock.Unlock()
		return 0, ErrNotComplete
	}
	p.ret = p.h.ret
	p.h.state = stateIdle
	p.h.data = nil
	p.h.lock.Unlock()
	p.done = true
	p.release()
	return p.ret, nil
}

// Wait blocks until the call completes, yielding to the scheduler
// between polls (see pause).
func (p *Pending) Wait() (uint64, error) {
	for {
		ret, err := p.Poll()
		if !errors.Is(err, ErrNotComplete) {
			return ret, err
		}
		pause()
	}
}

// MultiResponder services several HotCall slots with one polling core —
// the paper's "sharing the responder thread with several requesters"
// (Section 4.2) taken to its natural design: one channel per requester
// thread, no inter-requester lock contention, one burned core total.
type MultiResponder struct {
	slots []*HotCall
	table []func(data interface{}) uint64
	pass  int // rotates the scan start so no slot holds first-served priority
}

// NewMultiResponder returns a responder servicing all the given slots with
// a shared call table.
func NewMultiResponder(slots []*HotCall, table []func(data interface{}) uint64) *MultiResponder {
	return &MultiResponder{slots: slots, table: table}
}

// Run polls the slots until every slot is stopped.  Each pass starts one
// slot later than the last: a strict 0..n-1 scan gives slot 0 first
// claim on every responder quantum, and under saturation that priority
// compounds into starvation of the high-indexed slots (the fairness hole
// TestMultiResponderScanFairness pins).  Rotation hands the head of the
// line to every slot in turn.
func (m *MultiResponder) Run() {
	for m.runPass() {
		pause()
	}
}

// runPass scans every slot once, starting at the rotated offset, and
// executes any requested calls it finds.  It returns false once every
// slot is stopped.  Split from Run so tests can drive passes
// deterministically.
func (m *MultiResponder) runPass() (alive bool) {
	n := len(m.slots)
	start := m.pass
	m.pass++
	for k := 0; k < n; k++ {
		h := m.slots[(start+k)%n]
		if h.stopped.Load() {
			continue
		}
		alive = true
		if !h.lock.TryLock() {
			continue
		}
		if h.state != stateRequested {
			h.lock.Unlock()
			continue
		}
		id, data := h.id, h.data
		h.state = stateRunning
		h.lock.Unlock()

		var ret uint64
		if int(id) < 0 || int(id) >= len(m.table) {
			ret = ^uint64(0)
		} else {
			ret = m.table[id](data)
		}

		h.lock.Lock()
		h.ret = ret
		h.state = stateDone
		h.lock.Unlock()
	}
	return alive
}
