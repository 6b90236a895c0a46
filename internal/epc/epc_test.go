package epc

import (
	"testing"
	"testing/quick"

	"hotcalls/internal/sim"
)

func newTestManager(pages int) *Manager { return NewManager(pages * PageSize) }

func TestTouchResidentIsFree(t *testing.T) {
	m := newTestManager(4)
	if fault, _ := m.TouchAs(0, 1); !fault {
		t.Fatal("first touch should fault")
	}
	fault, cycles := m.TouchAs(0, 1)
	if fault || cycles != 0 {
		t.Fatalf("resident touch = (%v, %v), want (false, 0)", fault, cycles)
	}
}

func TestFaultCostCharged(t *testing.T) {
	m := newTestManager(4)
	_, cycles := m.TouchAs(0, 9)
	if cycles != FaultCost {
		t.Fatalf("fault cost = %v, want %v", cycles, float64(FaultCost))
	}
}

func TestEvictionWhenFull(t *testing.T) {
	m := newTestManager(2)
	m.TouchAs(0, 1)
	m.TouchAs(0, 2)
	m.TouchAs(0, 3) // must evict
	if m.ResidentPages() != 2 {
		t.Fatalf("resident = %d, want 2", m.ResidentPages())
	}
	_, faults, evictions := m.Stats()
	if faults != 3 || evictions != 1 {
		t.Fatalf("faults=%d evictions=%d, want 3, 1", faults, evictions)
	}
}

func TestClockSecondChance(t *testing.T) {
	m := newTestManager(3)
	m.TouchAs(0, 1)
	m.TouchAs(0, 2)
	m.TouchAs(0, 3)
	// First eviction sweeps reference bits and evicts page 1, leaving
	// pages 2 and 3 with cleared bits.
	m.TouchAs(0, 4)
	// Re-reference 2: the clock hand must now skip it (second chance)
	// and evict 3 instead.
	m.TouchAs(0, 2)
	m.TouchAs(0, 5)
	if fault, _ := m.TouchAs(0, 2); fault {
		t.Fatal("page 2 was referenced and should have survived the sweep")
	}
	if fault, _ := m.TouchAs(0, 3); !fault {
		t.Fatal("page 3 was unreferenced and should have been evicted")
	}
}

func TestSequentialSweepThrashes(t *testing.T) {
	// A working set one page larger than capacity, swept sequentially
	// with clock replacement, faults on every access after warmup — the
	// libquantum pathology.
	m := newTestManager(8)
	for p := uint64(0); p < 9; p++ {
		m.TouchAs(0, p)
	}
	faultsBefore := uint64(0)
	_, faultsBefore, _ = m.Stats()
	n := uint64(0)
	for sweep := 0; sweep < 3; sweep++ {
		for p := uint64(0); p < 9; p++ {
			m.TouchAs(0, p)
			n++
		}
	}
	_, faultsAfter, _ := m.Stats()
	rate := float64(faultsAfter-faultsBefore) / float64(n)
	if rate < 0.9 {
		t.Fatalf("sequential overcommit fault rate = %.2f, want ~1.0", rate)
	}
}

func TestWorkingSetWithinCapacityNeverFaultsAgain(t *testing.T) {
	m := newTestManager(16)
	for p := uint64(0); p < 16; p++ {
		m.TouchAs(0, p)
	}
	_, before, _ := m.Stats()
	for sweep := 0; sweep < 5; sweep++ {
		for p := uint64(0); p < 16; p++ {
			m.TouchAs(0, p)
		}
	}
	_, after, _ := m.Stats()
	if after != before {
		t.Fatalf("faults grew from %d to %d with resident working set", before, after)
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		m := newTestManager(8)
		for i := 0; i < 300; i++ {
			m.TouchAs(0, uint64(r.Intn(64)))
			if m.ResidentPages() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(100)
}
