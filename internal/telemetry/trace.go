// Package telemetry is the simulated platform's boundary-event tracer.
// The paper's argument rests on seeing where cycles go at the enclave
// boundary (Figure 3's CDFs, Table 1's medians, the ocall breakdowns);
// each layer that crosses it (sgx's leaf instructions, mem's EPC faults
// and MEE walks, sdk's edge calls, core.Channel's HotCalls) emits spans
// into one Tracer, and the cycle-attribution profiler (internal/profile)
// folds them into call trees.
//
// A nil *Tracer is a valid disabled tracer: every emitter holds one that
// is nil until its SetTracer, and checks it before building an event, so
// an untraced run pays one predictable branch.  Timestamps are simulated
// cycles from sim.Clock.
package telemetry

import "sync"

// Kind classifies a traced event: the profiler (internal/profile) builds
// call trees and attributes cycles by kind.
type Kind uint8

// Boundary event kinds, covering every crossing the stack can make.
const (
	KindEcall     Kind = iota // SDK ecall span (EENTER..EEXIT)
	KindOcall                 // SDK ocall span (EEXIT..ERESUME)
	KindHotECall              // HotCall ecall span (shared-memory protocol)
	KindHotOCall              // HotCall ocall span
	KindEEnter                // EENTER leaf instruction
	KindEExit                 // EEXIT leaf instruction
	KindEResume               // ERESUME leaf instruction
	KindAEX                   // asynchronous exit
	KindEPCFault              // EPC page fault: trap + ELDU (+ EWBs, in Arg)
	KindEWB                   // EPC eviction write-back
	KindMEEMiss               // MEE tree-cache miss burst (count in Arg)
	KindMarshal               // argument staging / copy-out phase of a call
	KindSpin                  // HotCall shared-memory sync (spin-wait) phase
	KindHandler               // enclave-side handler body of a HotCall
	KindMemAccess             // memory operation (MEE extra cycles in Arg)
)

// Event is one recorded boundary crossing.  TS and Dur are simulated
// cycles; Dur is zero for instantaneous events.  Arg carries a
// kind-specific detail (evictions forced by a fault, nodes missed in a
// tree walk).
type Event struct {
	Kind Kind
	Name string
	TS   uint64
	Dur  uint64
	Arg  uint64
}

// Tracer is a bounded ring buffer of events.  When the ring fills, the
// oldest events are overwritten.  A nil *Tracer is a valid disabled
// tracer, and instrumented code emits its per-phase (marshalling,
// spin-wait, handler) and per-memory-operation events only when the
// tracer is non-nil: enough for the profiler (internal/profile) to
// attribute every cycle of a call.
//
// Emit serialises writers with a mutex: tracing is opt-in, each event
// is a multi-word record, and the single-threaded discrete-event
// simulations never contend on it.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	next   uint64 // total events ever emitted
}

// NewTracer returns a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Emit records one event.
func (t *Tracer) Emit(kind Kind, name string, ts, dur, arg uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events[t.next%uint64(len(t.events))] = Event{Kind: kind, Name: name, TS: ts, Dur: dur, Arg: arg}
	t.next++
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	cap64 := uint64(len(t.events))
	if n <= cap64 {
		out := make([]Event, n)
		copy(out, t.events[:n])
		return out
	}
	out := make([]Event, cap64)
	start := n % cap64
	copy(out, t.events[start:])
	copy(out[cap64-start:], t.events[:start])
	return out
}
