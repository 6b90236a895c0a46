package monitor

import (
	"reflect"
	"regexp"
	"testing"

	"hotcalls/internal/core"
	"hotcalls/internal/epcstat"
)

// properNouns are the CamelCase words a diagnosis may use that are not
// a knob or a call: the names of the things being diagnosed.
var properNouns = map[string]bool{"HotCall": true, "HotCalls": true}

// camelCase matches an identifier-shaped word: a capitalised word with
// another capital further in (so not EPC, SDK or EWB+ELDU).
var camelCase = regexp.MustCompile(`\b[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*\b`)

// TestDiagnosesNameRealRemedies fires every default and EPC rule
// on one fabricated interval and resolves each identifier its diagnosis
// names against the fabric's API: an exported field of the option and
// handle types, or a method on them.  Advice to turn a knob that was
// deleted, or to call something that never existed, fails here.
func TestDiagnosesNameRealRemedies(t *testing.T) {
	exists := map[string]bool{}
	for _, v := range []any{core.PoolOptions{}, core.Responder{}, core.HotCall{}, core.Requester{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				exists[f.Name] = true
			}
		}
		for ptr, i := reflect.PointerTo(typ), 0; i < ptr.NumMethod(); i++ {
			exists[ptr.Method(i).Name] = true
		}
	}

	cur := Sample{
		Seq: 2,
		// fallback-storm, spin-waste (both arms), latency-slo, epc-thrash,
		// pool-saturation.
		DSubmissions: 100, DTimeouts: 50, DFallbacks: 50, TimeoutRate: 0.5, FallbackRate: 0.5,
		DPolls: 100000, DExecutes: 10, Occupancy: 0.0001, DSpinCycles: 400000,
		LatencyCount: 100, LatencyP99: 5000,
		DEPCEvicts: 5000, DEPCFaults: 5000,
		PoolResponders: 2, PoolRespondersMax: 2, PoolOccupancyMilli: 900,
		// epc-oversubscription, epc-victim-interference.
		EPC: &epcstat.Snapshot{
			Now: 2000, CapacityPages: 1000, WSSPages: 1200, Evictions: 200,
			Owners: []epcstat.OwnerStats{
				{Owner: 1, Label: "victim", WSSPages: 900, Evictions: 150},
				{Owner: 2, Label: "noisy", WSSPages: 300, Evictions: 50, EvictionsCaused: 200},
			},
			Interference: []epcstat.Cell{
				{Culprit: 2, Victim: 1, Evictions: 150},
				{Culprit: 2, Victim: 2, Evictions: 50},
			},
		},
	}
	window := []Sample{{Seq: 1, EPC: &epcstat.Snapshot{Now: 1000}}, cur}

	for _, r := range append(DefaultRules(), EPCRules()...) {
		events := r.Evaluate(window)
		if len(events) == 0 {
			t.Errorf("%s did not fire on the fabricated interval", r.Name())
		}
		for _, e := range events {
			for _, word := range camelCase.FindAllString(e.Diagnosis, -1) {
				if !exists[word] && !properNouns[word] {
					t.Errorf("%s advises %q, which no core option or method is called: %s", r.Name(), word, e.Diagnosis)
				}
			}
		}
	}
}
