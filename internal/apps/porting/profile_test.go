package porting

import (
	"testing"

	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

func TestProfileSelfTimeNesting(t *testing.T) {
	p := NewProfile()
	var clk sim.Clock
	closeOuter := p.Enter(&clk, "outer")
	clk.Advance(100)
	closeInner := p.Enter(&clk, "inner")
	clk.Advance(40)
	closeInner()
	clk.Advance(10)
	closeOuter()

	totals := p.Totals()
	if totals["outer"] != 110 {
		t.Errorf("outer self = %d, want 110 (excluding nested 40)", totals["outer"])
	}
	if totals["inner"] != 40 {
		t.Errorf("inner = %d, want 40", totals["inner"])
	}
	if p.Total() != 150 {
		t.Errorf("total = %d, want 150", p.Total())
	}
}

func TestProfileSameNameAggregates(t *testing.T) {
	p := NewProfile()
	var clk sim.Clock
	for i := 0; i < 3; i++ {
		done := p.Enter(&clk, "calls")
		clk.Advance(50)
		done()
	}
	if p.Totals()["calls"] != 150 {
		t.Errorf("aggregated = %d", p.Totals()["calls"])
	}
}

func TestProfileNestedSameName(t *testing.T) {
	// An ocall nested inside an entry call, both "edge-calls": the outer
	// must not double-count the inner.
	p := NewProfile()
	var clk sim.Clock
	closeOuter := p.Enter(&clk, "edge-calls")
	clk.Advance(30)
	closeInner := p.Enter(&clk, "edge-calls")
	clk.Advance(20)
	closeInner()
	closeOuter()
	if got := p.Totals()["edge-calls"]; got != 50 {
		t.Errorf("edge-calls = %d, want 50 (no double count)", got)
	}
}

func TestProfileOutOfOrderPanics(t *testing.T) {
	p := NewProfile()
	var clk sim.Clock
	closeA := p.Enter(&clk, "a")
	p.Enter(&clk, "b") // b left open
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order close")
		}
	}()
	closeA()
}

func TestAppProfileAttributesEdgeCalls(t *testing.T) {
	app := newApp(t, SGX)
	prof := app.EnableProfile()
	app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
		env.OCall("ocall_nop")
		done := env.Section(CatAppWork)
		env.Clk.Advance(5000)
		done()
		env.OCall("ocall_nop")
		env.TouchPages(4)
		return 0
	})
	var clk sim.Clock
	if _, err := app.Call(&clk, "ecall_entry"); err != nil {
		t.Fatal(err)
	}
	totals := prof.Totals()
	if totals[CatAppWork] != 5000 {
		t.Errorf("app work = %d, want 5000", totals[CatAppWork])
	}
	if totals[CatEdgeCalls] < 20000 {
		t.Errorf("edge calls = %d, want ecall + 2 ocalls worth", totals[CatEdgeCalls])
	}
	if totals[CatTLB] < 4*300 {
		t.Errorf("tlb = %d, want ~4 walks", totals[CatTLB])
	}
	// Everything inside Call is attributed somewhere.
	if prof.Total() != clk.Now() {
		t.Errorf("attributed %d of %d cycles", prof.Total(), clk.Now())
	}
	if prof.String() == "" {
		t.Error("empty render")
	}
}

func TestProfileDisabledSectionsAreFree(t *testing.T) {
	app := newApp(t, SGX)
	app.BindTrusted("ecall_entry", func(env *Env, args []sdk.Arg) uint64 {
		done := env.Section(CatAppWork) // no profiler attached
		done()
		return 3
	})
	var clk sim.Clock
	if ret, err := app.Call(&clk, "ecall_entry"); err != nil || ret != 3 {
		t.Fatalf("(%d, %v)", ret, err)
	}
}
