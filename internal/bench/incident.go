package bench

// The incident experiment is the black-box-postmortem demo: wedge the
// fabric's lone responder mid-handler, drive a fallback storm through a
// labelled callsite, let the monitor's storm rule fire, and print what
// the captured bundle says that repeats run to run: the rule, the
// diagnosis and the exact per-callsite counts.  The bundle itself — the
// artifact a responder on-call reads, with its capture time and
// wall-clock timelines — is spooled to disk with
// hotbench -incident-dir (make incident-demo, make experiments), which is
// what CI uploads when a step fails.

import (
	"fmt"
	"os"
	"strings"

	"hotcalls/internal/core"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// incidentDir is where runIncidentDemo spools its bundle; empty keeps
// the capture in memory only.  Set via SetIncidentDir (hotbench's
// -incident-dir flag).
var incidentDir string

// SetIncidentDir directs the incident experiment (and any future
// incident-capturing fixture) to also spool captured bundles as
// <dir>/<bundle-id>.json.
func SetIncidentDir(dir string) { incidentDir = dir }

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
	cap := incident.New(m, incident.Options{Dir: incidentDir, Registry: reg})
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
		// Where the bundle went is not part of the table, so the -docs
		// renderings are the same with and without -incident-dir.
		if incidentDir != "" {
			if _, _, diskErr := cap.Stats(); diskErr != nil {
				fmt.Fprintf(os.Stderr, "incident: spool error: %v\n", diskErr)
			} else {
				fmt.Fprintf(os.Stderr, "incident: spooled %s/%s.json\n", incidentDir, b.ID)
			}
		}
	}
	r.Table = sb.String()
	// Gated count: exactly one bundle per storm episode.  A zero here
	// means the detection-to-capture path broke end to end.
	r.Values = append(r.Values, Value{Name: "bundles-captured", Got: float64(len(bundles)), Unit: "calls"})
	return r
}

func init() {
	register(Experiment{ID: "incident", Title: "Incident capture demo", Run: runIncidentDemo})
}
