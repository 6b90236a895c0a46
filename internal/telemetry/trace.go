package telemetry

import "sync"

// Kind classifies a boundary event for the tracer and the Chrome trace
// exporter (which groups kinds onto named rows).
type Kind uint8

// Boundary event kinds, covering every crossing the stack can make.
const (
	KindEcall     Kind = iota // SDK ecall span (EENTER..EEXIT)
	KindOcall                 // SDK ocall span (EEXIT..ERESUME)
	KindHotECall              // HotCall ecall span (shared-memory protocol)
	KindHotOCall              // HotCall ocall span
	KindFallback              // HotCall timeout -> SDK fallback taken
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

// String returns the kind's row label for trace viewers.
func (k Kind) String() string {
	switch k {
	case KindEcall:
		return "ecall"
	case KindOcall:
		return "ocall"
	case KindHotECall:
		return "hot-ecall"
	case KindHotOCall:
		return "hot-ocall"
	case KindFallback:
		return "fallback"
	case KindEEnter:
		return "eenter"
	case KindEExit:
		return "eexit"
	case KindEResume:
		return "eresume"
	case KindAEX:
		return "aex"
	case KindEPCFault:
		return "epc-fault"
	case KindEWB:
		return "ewb"
	case KindMEEMiss:
		return "mee-miss"
	case KindMarshal:
		return "marshal"
	case KindSpin:
		return "spin"
	case KindHandler:
		return "handler"
	case KindMemAccess:
		return "mem"
	}
	return "event"
}

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

// Tracer is a bounded ring buffer of boundary events.  When the ring
// fills, the oldest events are overwritten — the tail of a run is what a
// trace viewer wants.  A nil *Tracer is a valid disabled tracer.
//
// Unlike counters and histograms, Emit serialises writers with a mutex:
// tracing is opt-in, each event is a multi-word record, and the
// single-threaded discrete-event simulations never contend on it.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	next   uint64 // total events ever emitted
	detail bool   // deep mode: per-phase and per-memory-access events
}

// NewTracer returns a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{events: make([]Event, capacity)}
}

// NewDetailedTracer returns a tracer in deep mode: instrumented code
// additionally emits marshalling, spin-wait, handler, and per-memory-
// operation events, enough for the profiler (internal/profile) to
// attribute every cycle of a call.  Deep traces are ~20x denser than the
// default boundary traces; size the ring accordingly.
func NewDetailedTracer(capacity int) *Tracer {
	t := NewTracer(capacity)
	t.detail = true
	return t
}

// Detailed reports whether deep (per-phase, per-memory-access) events
// should be emitted.  False on a nil or default tracer, so coarse
// boundary tracing keeps its original event stream.
func (t *Tracer) Detailed() bool { return t != nil && t.detail }

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

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, c := t.next, uint64(len(t.events)); n > c {
		return n - c
	}
	return 0
}
