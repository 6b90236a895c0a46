// Package incident turns monitor events into self-contained postmortem
// artifacts.  When a rule transitions to warning/critical, the attached
// Capturer freezes everything a responder-on-call needs to answer
// "what happened" without rerunning anything: the monitor's sample
// window, the flight recorder's causal timelines and retained outlier
// records (see flight's tail sampler), the per-callsite stats digest,
// a telemetry registry snapshot, the high-resolution latency histogram
// snapshots, the firing rule's structured diagnosis, and a
// critical-path attribution of every captured slow call — serialized
// as one deterministic JSON bundle (schema incident-bundle/v1) with
// per-rule cooldown dedup and a bounded in-memory retention ring.
//
// The import direction is incident → monitor/flight: the monitor knows
// nothing about bundles, it just calls the capturer through
// Monitor.SetOnEvent.
package incident

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// The capturer's policy.  A rule's event captures a bundle when it is
// at least minSeverity (Info never captures) and the rule's last capture
// is cooldown old.  The newest retain
// bundles stay in memory.  A bundle freezes the trailing windowSamples
// monitor samples, up to maxRecords flight records and as many outlier
// records, and the maxPaths slowest critical paths.
const (
	cooldown      = 30 * time.Second
	minSeverity   = monitor.Warning
	retain        = 16
	windowSamples = 32
	maxRecords    = 256
	maxPaths      = 32
)

// Options tunes a Capturer.  The zero value selects the defaults noted
// on each field.
type Options struct {
	// Registry, when set, adds a full telemetry snapshot to each
	// bundle.
	Registry *telemetry.Registry

	// Now is the wall clock (default time.Now).  Injectable for
	// deterministic cooldown tests.
	Now func() time.Time
}

// Capturer freezes incident bundles off monitor events.  All methods
// are goroutine-safe; OnEvent runs synchronously on the monitor's
// sampling goroutine, so a capture (a few snapshot walks) costs one
// tick of latency, never a hot-path cycle.
type Capturer struct {
	opts Options
	mon  *monitor.Monitor

	mu         sync.Mutex
	lastByRule map[string]time.Time
	bundles    []*Bundle // retention ring, oldest first
}

// New returns a capturer over the monitor.  Call Attach to start
// capturing.
func New(m *monitor.Monitor, opts Options) *Capturer {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Capturer{
		opts:       opts,
		mon:        m,
		lastByRule: make(map[string]time.Time),
	}
}

// Attach registers the capturer as the monitor's event callback via
// Monitor.SetOnEvent, replacing any previous callback.
func (c *Capturer) Attach() { c.mon.SetOnEvent(c.OnEvent) }

// OnEvent is the monitor event hook: severity-gate, per-rule cooldown
// dedup, then capture.
func (c *Capturer) OnEvent(e monitor.Event) {
	if c == nil || e.Severity < minSeverity {
		return
	}
	now := c.opts.Now()
	c.mu.Lock()
	if last, ok := c.lastByRule[e.Rule]; ok && now.Sub(last) < cooldown {
		c.mu.Unlock()
		return
	}
	c.lastByRule[e.Rule] = now
	c.mu.Unlock()

	b := c.capture(e, now)

	c.mu.Lock()
	if len(c.bundles) >= retain {
		copy(c.bundles, c.bundles[1:])
		c.bundles = c.bundles[:len(c.bundles)-1]
	}
	c.bundles = append(c.bundles, b)
	c.mu.Unlock()
}

// capture freezes one bundle.  It reads the monitor and flight
// recorder through their public goroutine-safe APIs only.
func (c *Capturer) capture(e monitor.Event, now time.Time) *Bundle {
	b := &Bundle{
		Schema:     BundleSchema,
		ID:         BundleID(e),
		CapturedAt: now.UTC(),
		Event:      e,
		Window:     c.mon.Window(windowSamples),
	}
	if f := c.mon.Flight(); f != nil {
		b.Callsites = f.Stats() // digests pending records first
		b.Records = f.Records(maxRecords)
		b.Outliers = f.Outliers(maxRecords)
		b.CriticalPaths = Analyze(append(append([]flightView(nil), b.Outliers...), b.Records...), maxPaths)
	}
	if col := c.mon.EPCStat(); col != nil {
		b.EPC = col.Snapshot() // flushes the paging accounting first
	}
	if c.opts.Registry != nil {
		snap := c.opts.Registry.Snapshot()
		b.Telemetry = &snap
	}
	return b
}

// BundleID derives the deterministic bundle identifier from the firing
// event: inc-<rule>-<seq>.  Rule names are already kebab-case; any
// stray separators are normalised so the ID is always one token.
func BundleID(e monitor.Event) string {
	rule := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, e.Rule)
	return fmt.Sprintf("inc-%s-%d", rule, e.Seq)
}

// Bundles returns the retained bundles, oldest first.
func (c *Capturer) Bundles() []*Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Bundle, len(c.bundles))
	copy(out, c.bundles)
	return out
}
