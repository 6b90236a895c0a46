package monitor

import (
	"strings"
	"testing"

	"hotcalls/internal/epcstat"
)

// epcSample wraps a synthetic observatory snapshot into a monitor sample
// for direct rule evaluation.
func epcSample(seq int, s *epcstat.Snapshot) Sample {
	return Sample{Seq: seq, EPC: s}
}

func TestEPCOversubscriptionRule(t *testing.T) {
	r := &EPCOversubscriptionRule{}

	if ev := r.Evaluate(nil); ev != nil {
		t.Fatalf("empty window fired: %+v", ev)
	}
	if ev := r.Evaluate([]Sample{{Seq: 1}}); ev != nil {
		t.Fatalf("sample without a collector fired: %+v", ev)
	}

	snap := func(wss uint64) *epcstat.Snapshot {
		return &epcstat.Snapshot{
			CapacityPages: 1000,
			WSSPages:      wss,
			Owners: []epcstat.OwnerStats{
				{Owner: 1, Label: "small", WSSPages: wss / 4},
				{Owner: 2, Label: "big", WSSPages: wss - wss/4},
			},
		}
	}

	// Below the warning fraction: quiet.
	if ev := r.Evaluate([]Sample{epcSample(1, snap(800))}); ev != nil {
		t.Fatalf("80%% occupancy fired: %+v", ev)
	}
	// Tiny absolute working sets stay quiet regardless of fraction.
	tiny := &epcstat.Snapshot{CapacityPages: 32, WSSPages: 32}
	if ev := r.Evaluate([]Sample{epcSample(1, tiny)}); ev != nil {
		t.Fatalf("sub-minimum working set fired: %+v", ev)
	}

	// 85-100%: warning, naming the largest owner.
	ev := r.Evaluate([]Sample{epcSample(2, snap(880))})
	if len(ev) != 1 || ev[0].Severity != Warning {
		t.Fatalf("88%% occupancy: got %+v, want one Warning", ev)
	}
	if !strings.Contains(ev[0].Diagnosis, "big(#2)") {
		t.Fatalf("diagnosis should name the largest owner: %q", ev[0].Diagnosis)
	}
	if ev[0].Value < 0.87 || ev[0].Value > 0.89 {
		t.Fatalf("value = %v, want the occupancy fraction ~0.88", ev[0].Value)
	}

	// Past capacity: critical.
	ev = r.Evaluate([]Sample{epcSample(3, snap(1200))})
	if len(ev) != 1 || ev[0].Severity != Critical {
		t.Fatalf("120%% occupancy: got %+v, want one Critical", ev)
	}
}

func TestEPCVictimInterferenceRule(t *testing.T) {
	r := &EPCVictimInterferenceRule{}

	prev := &epcstat.Snapshot{Now: 1000}
	cur := &epcstat.Snapshot{
		Now:       2000,
		Evictions: 200,
		Owners: []epcstat.OwnerStats{
			{Owner: 1, Label: "victim", Evictions: 150},
			{Owner: 2, Label: "noisy", Evictions: 50, EvictionsCaused: 200},
		},
		Interference: []epcstat.Cell{
			{Culprit: 2, Victim: 1, Evictions: 150},
			{Culprit: 2, Victim: 2, Evictions: 50},
		},
	}
	ev := r.Evaluate([]Sample{epcSample(1, prev), epcSample(2, cur)})
	if len(ev) != 1 || ev[0].Severity != Warning {
		t.Fatalf("got %+v, want one Warning", ev)
	}
	for _, want := range []string{"victim(#1)", "noisy(#2)", "150"} {
		if !strings.Contains(ev[0].Diagnosis, want) {
			t.Fatalf("diagnosis missing %q: %q", want, ev[0].Diagnosis)
		}
	}

	// Self-inflicted thrash (one owner evicting its own pages) is the
	// thrash rule's business, not an interference event.
	selfish := &epcstat.Snapshot{
		Now:       2000,
		Evictions: 200,
		Owners: []epcstat.OwnerStats{
			{Owner: 1, Label: "loner", Evictions: 200, EvictionsCaused: 200},
		},
		Interference: []epcstat.Cell{{Culprit: 1, Victim: 1, Evictions: 200}},
	}
	if ev := r.Evaluate([]Sample{epcSample(1, prev), epcSample(2, selfish)}); ev != nil {
		t.Fatalf("self-inflicted evictions fired interference: %+v", ev)
	}

	// Below the minimum interval eviction count: quiet.
	calm := &epcstat.Snapshot{
		Now:       2000,
		Evictions: 10,
		Owners:    []epcstat.OwnerStats{{Owner: 1, Evictions: 10}},
		Interference: []epcstat.Cell{
			{Culprit: 2, Victim: 1, Evictions: 10},
		},
	}
	if ev := r.Evaluate([]Sample{epcSample(1, prev), epcSample(2, calm)}); ev != nil {
		t.Fatalf("sub-minimum evictions fired: %+v", ev)
	}

	// Without a previous sample the delta is the cumulative view — the
	// rule still works on the first post-attach interval.
	if ev := r.Evaluate([]Sample{epcSample(1, cur)}); len(ev) != 1 {
		t.Fatalf("single-sample window: got %+v, want one event", ev)
	}
}

// TestEPCRulesAutoAttached checks fill(): wiring Options.EPC appends the
// EPC rule set without clobbering explicit rule lists.
func TestEPCRulesAutoAttached(t *testing.T) {
	col := epcstat.New(epcstat.Options{})
	m := New(nil, Options{EPC: col})
	var names []string
	for _, r := range m.opts.Rules {
		names = append(names, r.Name())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"epc-thrash", "epc-oversubscription", "epc-victim-interference"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("rule set missing %q: %v", want, names)
		}
	}
	if m.EPCStat() != col {
		t.Fatal("EPCStat accessor lost the collector")
	}

	explicit := New(nil, Options{EPC: col, Rules: []Rule{&EPCThrashRule{}}})
	if n := len(explicit.opts.Rules); n != 1 {
		t.Fatalf("explicit rule list grew to %d entries", n)
	}
}
