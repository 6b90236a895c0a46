package sgx

import (
	"errors"
	"testing"
	"testing/quick"

	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

func buildEnclave(t *testing.T, p *Platform, pages int) *Enclave {
	t.Helper()
	var clk sim.Clock
	e := p.ECreate(&clk, 1<<20, 2)
	for i := 0; i < pages; i++ {
		if err := e.EAdd(&clk, uint64(i)*PageSize); err != nil {
			t.Fatalf("EAdd: %v", err)
		}
	}
	if err := e.EInit(&clk); err != nil {
		t.Fatalf("EInit: %v", err)
	}
	return e
}

func TestLifecycle(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 4)
	if !e.Initialized() {
		t.Fatal("enclave not initialized")
	}
	if e.NumTCS() != 2 {
		t.Fatalf("NumTCS = %d", e.NumTCS())
	}
	if p.Enclave(e.ID()) != e {
		t.Fatal("platform lookup failed")
	}
}

func TestEAddAfterInitRejected(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 1)
	var clk sim.Clock
	if err := e.EAdd(&clk, 8*PageSize); !errors.Is(err, ErrAlreadyInitialized) {
		t.Fatalf("err = %v, want ErrAlreadyInitialized", err)
	}
	if err := e.EInit(&clk); !errors.Is(err, ErrAlreadyInitialized) {
		t.Fatalf("double EInit err = %v", err)
	}
}

func TestEEnterRequiresInit(t *testing.T) {
	p := NewPlatform(1)
	var clk sim.Clock
	e := p.ECreate(&clk, 1<<20, 1)
	tcs, _ := e.AcquireTCS()
	if err := e.EEnter(&clk, tcs); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v, want ErrNotInitialized", err)
	}
}

func TestEnterExitCycle(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	var clk sim.Clock
	tcs, err := e.AcquireTCS()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EEnter(&clk, tcs); err != nil {
		t.Fatal(err)
	}
	if !tcs.Entered() {
		t.Fatal("TCS not marked entered")
	}
	if err := e.EEnter(&clk, tcs); !errors.Is(err, ErrTCSBusy) {
		t.Fatalf("re-enter err = %v, want ErrTCSBusy", err)
	}
	if err := e.EExit(&clk, tcs); err != nil {
		t.Fatal(err)
	}
	if tcs.Entered() {
		t.Fatal("TCS still entered after EExit")
	}
	if err := e.EExit(&clk, tcs); !errors.Is(err, ErrTCSNotEntered) {
		t.Fatalf("double exit err = %v", err)
	}
}

func TestTCSPoolExhaustion(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2) // 2 TCS
	var clk sim.Clock
	t1, _ := e.AcquireTCS()
	e.EEnter(&clk, t1)
	t2, _ := e.AcquireTCS()
	e.EEnter(&clk, t2)
	if _, err := e.AcquireTCS(); !errors.Is(err, ErrTCSBusy) {
		t.Fatalf("err = %v, want ErrTCSBusy", err)
	}
	e.EExit(&clk, t2)
	if _, err := e.AcquireTCS(); err != nil {
		t.Fatalf("TCS not reusable after exit: %v", err)
	}
}

func TestAEXAndResume(t *testing.T) {
	p := NewPlatform(1)
	tr := telemetry.NewTracer(0)
	p.SetTracer(tr)
	e := buildEnclave(t, p, 2)
	var clk sim.Clock
	tcs, _ := e.AcquireTCS()
	e.EEnter(&clk, tcs)
	if err := e.AEX(&clk, tcs); err != nil {
		t.Fatal(err)
	}
	var aex int
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindAEX {
			aex++
		}
	}
	if aex != 1 {
		t.Fatalf("%d AEX events after one AEX, want 1", aex)
	}
	if tcs.Entered() {
		t.Fatal("TCS entered after AEX")
	}
	if tcs.cssa != 1 {
		t.Fatalf("cssa = %d, want 1", tcs.cssa)
	}
	if err := e.ResumeFromAEX(&clk, tcs); err != nil {
		t.Fatal(err)
	}
	if tcs.cssa != 0 || !tcs.Entered() {
		t.Fatal("resume did not restore state")
	}
	if err := e.ResumeFromAEX(&clk, tcs); !errors.Is(err, ErrTCSNotEntered) {
		t.Fatalf("resume without AEX err = %v", err)
	}
}

func TestWarmEnterExitIsStable(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	tcs, _ := e.AcquireTCS()
	var warmup sim.Clock
	for i := 0; i < 10; i++ {
		e.EEnter(&warmup, tcs)
		e.EExit(&warmup, tcs)
	}
	costs := make([]uint64, 0, 100)
	for i := 0; i < 100; i++ {
		var clk sim.Clock
		e.EEnter(&clk, tcs)
		e.EExit(&clk, tcs)
		costs = append(costs, clk.Now())
	}
	for _, c := range costs {
		if c != costs[0] {
			t.Fatalf("warm enter/exit cost varies: %d vs %d", c, costs[0])
		}
	}
}

func TestColdEnterExitCostsMore(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	tcs, _ := e.AcquireTCS()
	var warmup sim.Clock
	for i := 0; i < 10; i++ {
		e.EEnter(&warmup, tcs)
		e.EExit(&warmup, tcs)
	}
	var warm sim.Clock
	e.EEnter(&warm, tcs)
	e.EExit(&warm, tcs)

	p.Mem.EvictAll()
	var cold sim.Clock
	e.EEnter(&cold, tcs)
	e.EExit(&cold, tcs)
	if cold.Now() <= warm.Now()+2000 {
		t.Fatalf("cold enter/exit %d should far exceed warm %d", cold.Now(), warm.Now())
	}
}

func TestInRangeChecks(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	base, size := e.Base(), e.Size()
	if !e.InRange(base, size) {
		t.Fatal("full enclave range should be in range")
	}
	if e.InRange(base, size+1) || e.InRange(base-1, 2) {
		t.Fatal("out-of-bounds spans accepted")
	}
	if !e.OutsideRange(base-4096, 4096) || !e.OutsideRange(base+size, 64) {
		t.Fatal("fully outside spans rejected")
	}
	if e.OutsideRange(base+size-1, 2) {
		t.Fatal("straddling span accepted as outside")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	var clk sim.Clock
	a, err := e.Alloc(&clk, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if !e.InRange(a, 2048) {
		t.Fatal("allocation outside enclave")
	}
	e.Free(&clk, a, 2048)
	b, err := e.Alloc(&clk, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("free-list reuse failed: %#x vs %#x", a, b)
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := NewPlatform(1)
	var clk sim.Clock
	e := p.ECreate(&clk, 16*PageSize, 1)
	e.EInit(&clk)
	for {
		if _, err := e.Alloc(&clk, 1<<20); err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("err = %v, want ErrOutOfMemory", err)
			}
			return
		}
	}
}

func TestAllocationsDisjoint(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 2)
	var clk sim.Clock
	f := func(sizes []uint16) bool {
		type span struct{ a, sz uint64 }
		var spans []span
		for _, s := range sizes {
			sz := uint64(s%4096) + 1
			a, err := e.Alloc(&clk, sz)
			if err != nil {
				return true // heap exhausted is fine
			}
			for _, sp := range spans {
				if a < sp.a+sp.sz && sp.a < a+sz {
					return false
				}
			}
			spans = append(spans, span{a, sz})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnclavesDoNotOverlap(t *testing.T) {
	p := NewPlatform(1)
	var clk sim.Clock
	a := p.ECreate(&clk, 1<<20, 1)
	b := p.ECreate(&clk, 1<<20, 1)
	if !a.OutsideRange(b.Base(), b.Size()) {
		t.Fatal("enclaves overlap")
	}
}

func TestRDTSCPFaultsInsideEnclave(t *testing.T) {
	p := NewPlatform(1)
	e := buildEnclave(t, p, 1)
	if err := e.RDTSCP(); !errors.Is(err, ErrIllegalInstruction) {
		t.Fatalf("err = %v, want ErrIllegalInstruction", err)
	}
}
