package epcstat_test

// The observatory's acceptance test: a workload whose working set grows
// past capacity must trip the oversubscription early warning at least one
// monitor interval BEFORE the fault storm trips the thrash rule, the
// incident bundle captured at the storm must carry the per-owner EPC
// snapshot, and the interference matrix must account for every eviction
// exactly.  This lives in an external package because monitor imports
// epcstat.

import (
	"net/http/httptest"
	"strings"
	"testing"

	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

func firstEvent(events []monitor.Event, rule string) (monitor.Event, bool) {
	for _, e := range events {
		if e.Rule == rule {
			return e, true
		}
	}
	return monitor.Event{}, false
}

func TestOversubscriptionEarlyWarning(t *testing.T) {
	const capPages = 1024
	var key [16]byte
	copy(key[:], "accept-test-key!")
	mgr := epc.NewManager(capPages*epc.PageSize, key)
	reg := telemetry.New()
	mgr.SetTelemetry(reg) // the thrash rule reads eviction deltas from the registry
	col := epcstat.New(epcstat.Options{WindowTouches: 4096})
	col.Attach(mgr)
	col.SetLabel(1, "tenant-a")
	col.SetLabel(2, "tenant-b")

	m := monitor.New(reg, monitor.Options{EPC: col})
	cap := incident.New(m, incident.Options{Registry: reg})
	cap.Attach()

	m.Tick() // baseline

	// Phase 1: tenant-a resident at 39% of capacity — healthy.
	for p := uint64(0); p < 400; p++ {
		mgr.TouchAs(1, p)
	}
	m.Tick()
	if len(m.Events()) != 0 {
		t.Fatalf("healthy phase raised events: %+v", m.Events())
	}

	// Phase 2: tenant-a grows to 88% of capacity.  Still zero evictions —
	// the fault storm has not started — but the summed WSS crosses the
	// 85% early-warning threshold.
	for p := uint64(0); p < 900; p++ {
		mgr.TouchAs(1, p)
	}
	m.Tick()
	events := m.Events()
	warn, ok := firstEvent(events, "epc-oversubscription")
	if !ok {
		t.Fatalf("no oversubscription warning at 88%% occupancy; events: %+v", events)
	}
	if warn.Severity != monitor.Warning {
		t.Fatalf("early warning severity = %v, want Warning", warn.Severity)
	}
	if !strings.Contains(warn.Diagnosis, "tenant-a") {
		t.Fatalf("diagnosis should name the largest owner, got %q", warn.Diagnosis)
	}
	if _, thrashed := firstEvent(events, "epc-thrash"); thrashed {
		t.Fatal("thrash rule fired before any eviction — not an early warning")
	}
	_, faults, evictions := mgr.Stats()
	if evictions != 0 {
		t.Fatalf("phase 2 should be eviction-free, got %d (faults %d)", evictions, faults)
	}

	// Phase 3: tenant-b streams 1,300 fresh pages through — the storm.
	for p := uint64(900); p < 2200; p++ {
		mgr.TouchAs(2, p)
	}
	m.Tick()
	events = m.Events()
	thrash, ok := firstEvent(events, "epc-thrash")
	if !ok {
		t.Fatalf("no thrash event after the storm; events: %+v", events)
	}
	if thrash.Seq <= warn.Seq {
		t.Fatalf("early warning (seq %d) did not precede thrash (seq %d) by a monitor interval",
			warn.Seq, thrash.Seq)
	}
	interf, ok := firstEvent(events, "epc-victim-interference")
	if !ok {
		t.Fatalf("no victim-interference event: tenant-b evicted tenant-a's whole set; events: %+v", events)
	}
	if !strings.Contains(interf.Diagnosis, "tenant-a") || !strings.Contains(interf.Diagnosis, "tenant-b") {
		t.Fatalf("interference diagnosis should name victim and culprit, got %q", interf.Diagnosis)
	}

	// The incident bundles carry the per-owner EPC snapshot, and the
	// interference matrix accounts for every eviction exactly.
	bundles := cap.Bundles()
	if len(bundles) == 0 {
		t.Fatal("no incident bundles captured")
	}
	_, _, totalEvictions := mgr.Stats()
	var sawThrashBundle bool
	for _, b := range bundles {
		if b.EPC == nil {
			t.Fatalf("bundle %s has no EPC snapshot", b.ID)
		}
		if !strings.Contains(b.RenderText(), "epc pressure:") {
			t.Fatalf("bundle %s text view missing the EPC section", b.ID)
		}
		if !strings.Contains(b.ID, "epc-thrash") {
			continue
		}
		sawThrashBundle = true
		var cellSum uint64
		for _, cell := range b.EPC.Interference {
			cellSum += cell.Evictions
		}
		if cellSum != b.EPC.Evictions {
			t.Fatalf("bundle interference cells sum to %d, want %d", cellSum, b.EPC.Evictions)
		}
		if b.EPC.Evictions != totalEvictions {
			t.Fatalf("bundle evictions %d != manager total %d", b.EPC.Evictions, totalEvictions)
		}
	}
	if !sawThrashBundle {
		t.Fatalf("no bundle captured for the thrash storm; got %v", bundleIDs(bundles))
	}

	// The monitor's own surfaces show the pressure: the watch view lists
	// owners, and the mux serves /debug/epc.
	if txt := m.RenderText(5); !strings.Contains(txt, "epc owners") {
		t.Fatalf("monitor text view missing the owner table:\n%s", txt)
	}
	rr := httptest.NewRecorder()
	monitor.Mux(reg, m).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/epc", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), epcstat.SnapshotSchema) {
		t.Fatalf("/debug/epc = %d %q", rr.Code, rr.Body.String())
	}
}

func bundleIDs(bs []*incident.Bundle) []string {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
}
