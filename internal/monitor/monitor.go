package monitor

import (
	"sync"
	"time"

	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// The monitor's fixed sizes: Start samples every interval, the ring
// keeps the newest ringCap samples and the log the newest eventCap
// events (oldest dropped first), and an event stays "active" in Health
// for healthWindow trailing samples.
const (
	interval     = 250 * time.Millisecond
	ringCap      = 256
	eventCap     = 256
	healthWindow = 12
)

// Options tunes a Monitor.  The zero value selects the defaults noted on
// each field.
type Options struct {
	// Rules is the evaluation set; nil selects DefaultRules().
	Rules []Rule

	// Flight, when set, attaches the call fabric's flight recorder: every
	// tick digests its rings once, and incident bundles freeze its stats
	// table, records and outliers.
	Flight *flight.Recorder

	// EPC, when set, attaches the EPC pressure observatory: every
	// sample carries its snapshot (flushed once per tick), RenderText
	// grows a per-owner section, and — when
	// Rules is nil — the oversubscription early-warning and
	// victim-interference rules join the default rule set.
	EPC *epcstat.Collector

	// EventDebounce, when > 0, adds per-rule hysteresis: while a rule's
	// firing episode is live, repeat events at the same or lower
	// severity are suppressed (neither logged nor passed to the
	// SetOnEvent callback) — only the opening event and severity
	// escalations get through.  An episode ends once the rule stays
	// silent for EventDebounce consecutive samples; the next firing
	// opens a new episode and emits again.  A rule flapping across its
	// threshold therefore produces one event transition per episode, not
	// a storm.  Default 0 keeps the historical emit-every-evaluation
	// behavior.
	EventDebounce int
}

func (o *Options) fill() {
	if o.Rules == nil {
		o.Rules = DefaultRules()
		if o.EPC != nil {
			o.Rules = append(o.Rules, EPCRules()...)
		}
	}
}

// Monitor owns a sampler, a bounded sample ring, a rule set, and a
// bounded event log.  Drive it either with Start/Stop (wall-clock
// sampling on its own goroutine) or with explicit Tick calls
// (deterministic, for tests and one-shot dumps).  All methods are
// goroutine-safe.
type Monitor struct {
	mu      sync.Mutex
	sampler *Sampler
	opts    Options

	samples []Sample // ring, capacity ringCap
	head    int      // next write position
	count   int      // valid entries

	events        []Event
	droppedEvents uint64
	episodes      map[string]*episode // per-rule debounce state
	onEvent       func(Event)         // SetOnEvent's callback
	every         time.Duration       // Start's sampling period: interval

	stop    chan struct{}
	done    chan struct{}
	running bool
}

// New returns a monitor over the registry the workload's telemetry is
// attached to (nil is valid and yields all-zero samples).  It takes no
// samples until Tick or Start.
func New(reg *telemetry.Registry, opts Options) *Monitor {
	opts.fill()
	sampler := NewSampler(reg)
	sampler.SetFlight(opts.Flight)
	sampler.SetEPC(opts.EPC)
	return &Monitor{sampler: sampler, opts: opts, every: interval}
}

// Flight returns the attached flight recorder, or nil.
func (m *Monitor) Flight() *flight.Recorder { return m.opts.Flight }

// EPCStat returns the attached EPC pressure observatory, or nil.
func (m *Monitor) EPCStat() *epcstat.Collector { return m.opts.EPC }

// SetOnEvent attaches (or replaces, or with nil detaches) the callback
// invoked for every emitted event, after it is logged — internal/incident
// uses this to wire a capturer onto a monitor, running or not.  The
// callback runs synchronously on the sampling goroutine, after debounce
// filtering: keep it fast.
func (m *Monitor) SetOnEvent(cb func(Event)) {
	m.mu.Lock()
	m.onEvent = cb
	m.mu.Unlock()
}

// episode is one rule's live firing state for EventDebounce hysteresis.
type episode struct {
	severity Severity // worst emitted severity this episode
	lastSeq  int      // newest sample the rule fired on (emitted or not)
}

// debounceLocked filters freshly-fired events through the per-rule
// episode state.  Caller holds m.mu.
func (m *Monitor) debounceLocked(fired []Event) []Event {
	if m.opts.EventDebounce <= 0 || len(fired) == 0 {
		return fired
	}
	if m.episodes == nil {
		m.episodes = make(map[string]*episode)
	}
	out := fired[:0]
	for _, e := range fired {
		ep, live := m.episodes[e.Rule]
		if live && e.Seq-ep.lastSeq > m.opts.EventDebounce {
			live = false // the rule went quiet: episode over
		}
		switch {
		case !live:
			m.episodes[e.Rule] = &episode{severity: e.Severity, lastSeq: e.Seq}
			out = append(out, e)
		case e.Severity > ep.severity:
			ep.severity = e.Severity
			ep.lastSeq = e.Seq
			out = append(out, e)
		default:
			ep.lastSeq = e.Seq // suppressed, but the episode stays live
		}
	}
	return out
}

// Tick takes one sample, evaluates every rule over the current window,
// logs emitted events, and returns the sample.
func (m *Monitor) Tick() Sample {
	m.mu.Lock()
	s := m.sampler.Sample(time.Now())
	if len(m.samples) < ringCap {
		m.samples = append(m.samples, s)
	} else {
		m.samples[m.head] = s
	}
	m.head = (m.head + 1) % ringCap
	if m.count < ringCap {
		m.count++
	}
	window := m.windowLocked(m.count)
	var fired []Event
	for _, r := range m.opts.Rules {
		fired = append(fired, r.Evaluate(window)...)
	}
	fired = m.debounceLocked(fired)
	for _, e := range fired {
		if len(m.events) >= eventCap {
			copy(m.events, m.events[1:])
			m.events = m.events[:len(m.events)-1]
			m.droppedEvents++
		}
		m.events = append(m.events, e)
	}
	cb := m.onEvent
	m.mu.Unlock()
	if cb != nil {
		for _, e := range fired {
			cb(e)
		}
	}
	return s
}

// windowLocked returns the newest n samples, oldest first.  Callers hold
// m.mu.
func (m *Monitor) windowLocked(n int) []Sample {
	if n > m.count {
		n = m.count
	}
	out := make([]Sample, 0, n)
	start := m.head - n
	if start < 0 {
		start += len(m.samples)
	}
	for i := 0; i < n; i++ {
		out = append(out, m.samples[(start+i)%len(m.samples)])
	}
	return out
}

// Window returns the newest n samples, oldest first (all retained
// samples when n <= 0).
func (m *Monitor) Window(n int) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = m.count
	}
	return m.windowLocked(n)
}

// DroppedEvents returns how many events were evicted from the bounded
// log.
func (m *Monitor) DroppedEvents() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.droppedEvents
}

// Start begins wall-clock sampling every interval on a new goroutine.  It is a no-op when already running.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done, every := m.stop, m.done, m.every
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Tick()
			}
		}
	}()
}

// Stop halts wall-clock sampling and waits for the sampling goroutine to
// exit.  The sample ring and event log are retained.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// Health is the aggregate verdict over the recent window.
type Health struct {
	// Status is "ok", "degraded" (active warnings), or "critical".
	Status string `json:"status"`
	// Samples is how many samples the monitor has taken in total.
	Samples int `json:"samples"`
	// Alerts are the events still inside the health window, oldest
	// first.
	Alerts []Event `json:"alerts,omitempty"`
	// Last is the newest sample, if any.
	Last *Sample `json:"last,omitempty"`
}

// Health summarises the monitor: the worst severity among events whose
// sample is within the trailing healthWindow samples decides the status.
func (m *Monitor) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{Status: "ok"}
	if m.count == 0 {
		h.Samples = m.sampler.seq
		return h
	}
	w := m.windowLocked(1)
	last := w[0]
	h.Last = &last
	h.Samples = m.sampler.seq
	cutoff := last.Seq - healthWindow + 1
	worst := Severity(-1)
	for _, e := range m.events {
		if e.Seq < cutoff {
			continue
		}
		h.Alerts = append(h.Alerts, e)
		if e.Severity > worst {
			worst = e.Severity
		}
	}
	switch {
	case worst >= Critical:
		h.Status = "critical"
	case worst >= Warning:
		h.Status = "degraded"
	}
	return h
}
