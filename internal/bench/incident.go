package bench

// The incident experiment is the black-box-postmortem demo: wedge the
// fabric's lone responder mid-handler, drive a fallback storm through a
// labelled callsite, let the monitor's storm rule fire, and print what
// the captured bundle says that repeats run to run: the rule, the
// diagnosis and the exact per-callsite counts.  It is the only program
// path through the incident capturer and the fallback-storm rule, and
// its bundle count is part of the exact gate.

import (
	"fmt"
	"strings"

	"hotcalls/internal/core"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

const (
	// incidentStormCalls all time out against the wedged window.
	incidentStormCalls = 100
	// incidentWindow slots, all parked on the stalled handler.
	incidentWindow = 4
)

// runIncidentDemo injects the stall, fires the rule, and renders the
// resulting bundle.
func runIncidentDemo() *Report {
	r := &Report{ID: "incident", Title: "Incident capture (stalled responder -> fallback storm -> postmortem bundle)"}

	gate := make(chan struct{})
	p := core.NewCallPool([]core.PoolFunc{
		func(_ int, d uint64) uint64 { <-gate; return d },
	}, core.PoolOptions{Shards: 1, SlotsPerShard: incidentWindow, Timeout: 1024, MaxResponders: 1})

	reg := telemetry.New()
	p.SetTelemetry(reg)
	rec := flight.New(flight.Options{})
	p.SetFlight(rec)
	cs := rec.Callsite("demo.storm")

	p.Start()
	req := p.Requester()

	// Wedge the fabric: the responder claims the first call and blocks;
	// the remaining submissions fill the window.
	var wedge [incidentWindow]core.VecCall
	for i := range wedge {
		wedge[i].Data = uint64(i)
	}
	parked, _ := req.SubmitV(wedge[:])

	m := monitor.New(reg, monitor.Options{
		Rules:         monitor.DefaultRules(),
		Flight:        rec,
		EventDebounce: 2,
	})
	cap := incident.New(m, incident.Options{Registry: reg})
	cap.Attach()
	m.Tick() // baseline

	// The storm: every call exhausts its submission attempts against
	// the full window and degrades to the fallback path.
	for i := 0; i < incidentStormCalls; i++ {
		_, _ = req.CallOrFallback(core.VecCall{Data: uint64(i), Site: cs}, func() (uint64, error) { return 0, nil })
	}
	m.Tick() // the fallback-storm rule fires; the capturer freezes the bundle

	close(gate)
	if parked != nil {
		_ = parked.WaitAll(nil)
	}
	p.Stop()

	bundles := cap.Bundles()
	var sb strings.Builder
	if len(bundles) == 0 {
		sb.WriteString("no bundle captured (storm rule did not fire)\n")
	} else {
		b := bundles[0]
		fmt.Fprintf(&sb, "incident %s (%s)\n", b.ID, b.Schema)
		fmt.Fprintf(&sb, "rule: %s  severity: %s\n", b.Event.Rule, b.Event.Severity)
		fmt.Fprintf(&sb, "diagnosis: %s\n", b.Event.Diagnosis)
		for _, cs := range b.Callsites {
			fmt.Fprintf(&sb, "callsite %s: %d calls, %d timeouts, %d fallbacks\n",
				cs.Name, cs.Arrivals, cs.Timeouts, cs.Fallbacks)
		}
		fmt.Fprintf(&sb, "bundles captured: %d\n", len(bundles))
	}
	r.Table = sb.String()
	// Gated count: exactly one bundle per storm episode.  A zero here
	// means the detection-to-capture path broke end to end.
	r.Values = append(r.Values, Value{Name: "bundles-captured", Got: float64(len(bundles)), Unit: "calls"})
	return r
}

func init() {
	register(Experiment{ID: "incident", Run: runIncidentDemo})
}
