package epcstat_test

// The observatory's acceptance test: a workload whose working set grows
// past capacity must show in the summed WSS estimate before the first
// eviction, and once the fault storm runs, the interference matrix must
// account for every eviction exactly and name who evicted whom.

import (
	"testing"

	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
)

func TestOversubscriptionEarlyWarning(t *testing.T) {
	const capPages = 1024
	mgr := epc.NewManager(capPages * epc.PageSize)
	col := epcstat.New(epcstat.Options{WindowTouches: 4096})
	col.Attach(mgr)

	// Phase 1: tenant-a resident at 39% of capacity — healthy.
	for p := uint64(0); p < 400; p++ {
		mgr.TouchAs(1, p)
	}
	if s := col.Snapshot(); s.WSSPages*100 >= 85*capPages || s.Evictions != 0 {
		t.Fatalf("healthy phase: WSS %d of %d pages, %d evictions", s.WSSPages, capPages, s.Evictions)
	}

	// Phase 2: tenant-a grows to 88% of capacity.  Still zero evictions —
	// the fault storm has not started — but the summed WSS crosses 85%.
	for p := uint64(0); p < 900; p++ {
		mgr.TouchAs(1, p)
	}
	s := col.Snapshot()
	if s.WSSPages*100 < 85*capPages {
		t.Fatalf("WSS %d of %d pages at 88%% occupancy: no early warning", s.WSSPages, capPages)
	}
	if s.Evictions != 0 {
		t.Fatalf("phase 2 should be eviction-free, got %d (faults %d)", s.Evictions, s.Faults)
	}

	// Phase 3: tenant-b streams 1,300 fresh pages through — the storm.
	for p := uint64(900); p < 2200; p++ {
		mgr.TouchAs(2, p)
	}
	s = col.Snapshot()
	_, _, totalEvictions := mgr.Stats()
	if s.Evictions != totalEvictions || totalEvictions == 0 {
		t.Fatalf("snapshot evictions %d, manager total %d", s.Evictions, totalEvictions)
	}
	var cellSum, bEvictedA uint64
	for _, cell := range s.Interference {
		cellSum += cell.Evictions
		if cell.Culprit == 2 && cell.Victim == 1 {
			bEvictedA = cell.Evictions
		}
	}
	if cellSum != s.Evictions {
		t.Fatalf("interference cells sum to %d, want %d", cellSum, s.Evictions)
	}
	if bEvictedA == 0 {
		t.Fatalf("tenant-b's storm evicted none of tenant-a's pages: %+v", s.Interference)
	}
	if len(s.Owners) != 2 {
		t.Fatalf("snapshot owners = %+v, want both tenants", s.Owners)
	}
}
