package profile

import (
	"math"
	"testing"

	"hotcalls/internal/telemetry"
)

// ev builds one event; end-emission order in tests mirrors how the
// instrumentation emits (children before parents, ends non-decreasing).
func ev(k telemetry.Kind, name string, ts, dur, arg uint64) telemetry.Event {
	return telemetry.Event{Kind: k, Name: name, TS: ts, Dur: dur, Arg: arg}
}

func TestBuildTreesNesting(t *testing.T) {
	// A warm-ecall-shaped stream: prep touches, EENTER (with its own
	// touches), then the enclosing ecall span.
	events := []telemetry.Event{
		ev(telemetry.KindMemAccess, "load", 1820, 12, 0),
		ev(telemetry.KindMemAccess, "store", 1832, 12, 0),
		ev(telemetry.KindMemAccess, "load", 1856, 12, 0), // eenter touch
		ev(telemetry.KindEEnter, "eenter", 1844, 3034, 1),
		ev(telemetry.KindEcall, "ecall:ecall_empty", 0, 8640, 0),
	}
	roots := BuildTrees(events)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Event.Kind != telemetry.KindEcall || len(root.Children) != 3 {
		t.Fatalf("root %v with %d children, want ecall with 3", root.Event, len(root.Children))
	}
	eenter := root.Children[2]
	if eenter.Event.Kind != telemetry.KindEEnter || len(eenter.Children) != 1 {
		t.Fatalf("eenter child %v with %d children, want 1", eenter.Event, len(eenter.Children))
	}
	if self := eenter.Self(); self != 3034-12 {
		t.Fatalf("eenter self = %d, want %d", self, 3034-12)
	}
	if self := root.Self(); self != 8640-12-12-3034 {
		t.Fatalf("root self = %d", self)
	}
}

func TestBuildTreesClockRegression(t *testing.T) {
	// Two measured runs on fresh clocks: the second run's first event
	// ends before the first run's watermark, forcing a flush.
	events := []telemetry.Event{
		ev(telemetry.KindMemAccess, "load", 100, 12, 0),
		ev(telemetry.KindEcall, "ecall:e", 0, 500, 0),
		ev(telemetry.KindMemAccess, "load", 100, 12, 0),
		ev(telemetry.KindEcall, "ecall:e", 0, 500, 0),
	}
	roots := BuildTrees(events)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (one per run)", len(roots))
	}
	for i, r := range roots {
		if r.Event.Kind != telemetry.KindEcall || len(r.Children) != 1 {
			t.Fatalf("root %d = %v with %d children", i, r.Event, len(r.Children))
		}
	}
}

func TestBuildTreesIdenticalRepeats(t *testing.T) {
	// Coarse traces of identical runs on reset clocks produce exactly
	// repeated events; they must become siblings, not nest.
	var events []telemetry.Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(telemetry.KindEcall, "ecall:e", 0, 8640, 0))
	}
	roots := BuildTrees(events)
	if len(roots) != 5 {
		t.Fatalf("got %d roots, want 5 siblings", len(roots))
	}
	for _, r := range roots {
		if len(r.Children) != 0 {
			t.Fatal("identical repeats must not adopt each other")
		}
	}
}

func TestAnalyzeNestedCallContexts(t *testing.T) {
	// An ocall nested in a driver ecall: the ocall subtree's cycles
	// belong to the ocall site, not the driver's.
	events := []telemetry.Event{
		ev(telemetry.KindEExit, "eexit", 3000, 2658, 1),
		ev(telemetry.KindOcall, "ocall:o", 2500, 8314, 0),
		ev(telemetry.KindHandler, "handler:ecall_driver", 2500, 8314, 0),
		ev(telemetry.KindEcall, "ecall:driver", 0, 12000, 0),
	}
	p := Analyze(events)
	drv := p.Calls["ecall:driver"]
	oc := p.Calls["ocall:o"]
	if drv == nil || oc == nil {
		t.Fatalf("missing breakdowns: %d sites", len(p.Calls))
	}
	if drv.Calls != 1 || oc.Calls != 1 {
		t.Fatalf("calls drv=%d oc=%d", drv.Calls, oc.Calls)
	}
	if got := drv.Total; got != 12000-8314 {
		t.Fatalf("driver attributed %d cycles, want %d (ocall excluded)", got, 12000-8314)
	}
	if got := oc.Total; got != 8314 {
		t.Fatalf("ocall attributed %d cycles, want 8314", got)
	}
	if oc.Cycles[CatMicrocode] != 2658 || oc.Cycles[CatMarshal] != 8314-2658 {
		t.Fatalf("ocall categories: %v", oc.Cycles)
	}
}

func TestAnalyzeMemAccessSplit(t *testing.T) {
	// A mem access with MEE-extra in Arg splits between cache and MEE;
	// an EPC fault child goes to paging.
	events := []telemetry.Event{
		ev(telemetry.KindEWB, "ewb", 101500, 3700, 0),
		ev(telemetry.KindEPCFault, "epc_fault", 100000, 9000, 1),
		ev(telemetry.KindMemAccess, "load", 100000, 9400, 92),
		ev(telemetry.KindEcall, "ecall:cold", 99000, 11000, 0),
	}
	p := Analyze(events)
	b := p.Calls["ecall:cold"]
	if b == nil {
		t.Fatal("missing breakdown")
	}
	if b.Cycles[CatEPC] != 9000 {
		t.Fatalf("epc = %d, want 9000 (fault self %d + ewb self %d)", b.Cycles[CatEPC], 9000-3700, 3700)
	}
	if b.Cycles[CatMEE] != 92 {
		t.Fatalf("mee = %d, want 92", b.Cycles[CatMEE])
	}
	if b.Cycles[CatCache] != 9400-9000-92 {
		t.Fatalf("cache = %d, want %d", b.Cycles[CatCache], 9400-9000-92)
	}
	if b.Cycles[CatMarshal] != 11000-9400 {
		t.Fatalf("marshal (ecall self) = %d", b.Cycles[CatMarshal])
	}
}

func TestBreakdownStats(t *testing.T) {
	b := &Breakdown{}
	for _, d := range []uint64{10, 30, 20} {
		b.Calls++
		b.Total += d
	}
	if b.Mean() != 20 {
		t.Fatalf("mean = %f", b.Mean())
	}
}

// TestSpeedup pins the counterfactual to exact arithmetic: with two
// sites in known cycle splits, speeding one category up by δ must move
// that site's throughput by exactly share·δ/(1 − share·δ).
func TestSpeedup(t *testing.T) {
	p := Analyze([]telemetry.Event{
		ev(telemetry.KindHandler, "handler:a", 1000, 1000, 0),
		ev(telemetry.KindHotECall, "hotecall:a", 0, 4000, 0),
		ev(telemetry.KindHotECall, "hotecall:b", 4000, 1000, 0),
	})
	for _, tc := range []struct {
		site  string
		c     Category
		delta float64
		want  float64
	}{
		{"hotecall:a", CatSpin, 0.10, 4000.0/(4000-0.10*3000) - 1},
		{"hotecall:a", CatHandler, 0.10, 4000.0/(4000-0.10*1000) - 1},
		{"hotecall:a", CatSpin, -0.10, 4000.0/(4000+0.10*3000) - 1}, // a slowdown
		{"hotecall:b", CatSpin, 0.10, 1000.0/(1000-0.10*1000) - 1},
		{"hotecall:b", CatHandler, 0.10, 0},
	} {
		b := p.Calls[tc.site]
		if b == nil {
			t.Fatalf("no breakdown for %s (%d sites)", tc.site, len(p.Calls))
		}
		if got := b.Speedup(tc.c, tc.delta); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Speedup(%s, %v) = %v, want %v", tc.site, tc.c, tc.delta, got, tc.want)
		}
	}
}
