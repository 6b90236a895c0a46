package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hotcalls/internal/flight"
)

// TestPoolFlightCausalTimeline runs a known scripted workload through
// the fabric with the recorder sampling every call, then reads the
// causal timelines back from the recorder's records and checks every
// record tells the story in order — submit, claim, execute start/end,
// wait return — attributed to the right callsite.
func TestPoolFlightCausalTimeline(t *testing.T) {
	const spinNS = 20_000
	table := []PoolFunc{
		func(_ int, d uint64) uint64 { return d }, // echo
		func(_ int, d uint64) uint64 { // busy: a visible service time
			start := time.Now()
			for time.Since(start) < spinNS*time.Nanosecond {
			}
			return d
		},
	}
	p := NewCallPool(table, PoolOptions{Shards: 2, SlotsPerShard: 8, Timeout: 1 << 20})
	rec := flight.New(flight.Options{SampleEvery: 1})
	p.SetFlight(rec)
	csEcho := rec.Callsite("script.echo")
	csBusy := rec.Callsite("script.busy")
	p.Start()
	defer p.Stop()

	// Scripted workload: requester 0 makes 8 echo calls, requester 1
	// makes 4 busy calls.
	r0, r1 := p.Requester(), p.Requester()
	for i := 0; i < 8; i++ {
		if _, err := r0.CallV(VecCall{Data: uint64(i), Site: csEcho}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := r1.CallV(VecCall{ID: 1, Data: uint64(i), Site: csBusy}); err != nil {
			t.Fatal(err)
		}
	}

	records := rec.Records(64)
	if len(records) != 12 {
		t.Fatalf("records = %d, want 12", len(records))
	}
	perSite := map[string]int{}
	for _, v := range records {
		perSite[v.Name]++
		if !(v.SubmitNS <= v.ClaimNS && v.ClaimNS <= v.ExecStartNS &&
			v.ExecStartNS <= v.ExecEndNS && v.ExecEndNS <= v.ReturnNS) {
			t.Errorf("causal order violated: %+v", v)
		}
		// Claimed by a live responder or, that one parked, run inline.
		if (v.Responder < 0 || v.Responder >= p.opts.MaxResponders) && v.Responder != flight.InlineResponder {
			t.Errorf("completed call with no responder: %+v", v)
		}
		switch v.Name {
		case "script.echo":
			if v.Shard != 0 || v.CallID != 0 {
				t.Errorf("echo record misattributed: %+v", v)
			}
		case "script.busy":
			if v.Shard != 1 || v.CallID != 1 {
				t.Errorf("busy record misattributed: %+v", v)
			}
			if svc := v.ExecEndNS - v.ExecStartNS; svc < spinNS {
				t.Errorf("busy service %dns < scripted %dns spin", svc, spinNS)
			}
		default:
			t.Errorf("unexpected callsite %q", v.Name)
		}
	}
	if perSite["script.echo"] != 8 || perSite["script.busy"] != 4 {
		t.Errorf("per-callsite records = %v, want echo:8 busy:4", perSite)
	}
}

// TestPoolFlightSubmitWait covers the async path: SubmitV/WaitAll
// windows of one must close records just like CallV.
func TestPoolFlightSubmitWait(t *testing.T) {
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d * 2 }},
		PoolOptions{Shards: 1, SlotsPerShard: 8, Timeout: 1 << 20})
	rec := flight.New(flight.Options{SampleEvery: 1})
	p.SetFlight(rec)
	cs := rec.Callsite("async.op")
	p.Start()
	defer p.Stop()

	r := p.Requester()
	var pending []*PoolBatch
	for i := 0; i < 8; i++ {
		pd, err := r.SubmitV([]VecCall{{Data: uint64(i), Site: cs}})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pd)
	}
	for i, pd := range pending {
		ret, err := waitOne(pd)
		if err != nil || ret != uint64(i*2) {
			t.Fatalf("wait %d: ret=%d err=%v", i, ret, err)
		}
	}
	views := rec.Records(16)
	if len(views) != 8 {
		t.Fatalf("closed records = %d, want 8", len(views))
	}
	for _, v := range views {
		if v.ReturnNS < v.ExecEndNS {
			t.Errorf("async record closed before execute end: %+v", v)
		}
	}
}

// TestPoolSubmitVPerCallSite: every call of a window carries its own
// callsite.  One SubmitV window interleaving two callsites, sampled at
// every call, attributes each record to the callsite its call named (gets
// are call 0, sets call 1).
func TestPoolSubmitVPerCallSite(t *testing.T) {
	const window = 16
	p := NewCallPool(echoTable(), testPool(1, 1))
	rec := flight.New(flight.Options{SampleEvery: 1})
	p.SetFlight(rec)
	get, set := rec.Callsite("mix.get"), rec.Callsite("mix.set")
	p.Start()
	defer p.Stop()
	r := p.Requester()

	var calls [window]VecCall
	for i := range calls {
		calls[i] = VecCall{Data: uint64(i), Site: get}
		if i%3 == 2 { // 5 sets among 11 gets
			calls[i] = VecCall{ID: 1, Data: uint64(i), Site: set}
		}
	}
	b, err := r.SubmitV(calls[:])
	if err != nil {
		t.Fatal(err)
	}
	var rets [window]uint64
	if err := b.WaitAll(rets[:]); err != nil {
		t.Fatal(err)
	}
	for i, ret := range rets {
		if ret != uint64(i) {
			t.Fatalf("rets[%d] = %d", i, ret)
		}
	}
	views := rec.Records(2 * window)
	if len(views) != window {
		t.Fatalf("%d records for a window of %d", len(views), window)
	}
	perSite := map[string]int{}
	for _, v := range views {
		perSite[v.Name]++
		if want := [2]string{"mix.get", "mix.set"}[v.CallID]; v.Name != want {
			t.Errorf("call %d recorded under %q, want %q", v.CallID, v.Name, want)
		}
	}
	if perSite["mix.get"] != 11 || perSite["mix.set"] != 5 {
		t.Fatalf("records per callsite = %v, want 11 mix.get and 5 mix.set", perSite)
	}
}

// TestPoolFlightStressRace crosses every moving part under the race
// detector: requester traffic with the recorder sampling heavily,
// concurrent Records readers, the controller growing and
// shrinking the responder pool, and a final Stop racing in-flight calls.  The assertions are the
// seqlock invariants; mostly this test exists so `go test -race`
// explores the recorder's memory orderings.
func TestPoolFlightStressRace(t *testing.T) {
	workers := 4
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: workers, SlotsPerShard: 16, Timeout: 1 << 16,
			MaxResponders: 4})
	rec := flight.New(flight.Options{SampleEvery: 2})
	p.SetFlight(rec)
	cs := rec.Callsite("stress.op")
	p.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Requester traffic.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(r *Requester) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := r.CallV(VecCall{Data: uint64(i), Site: cs}); err != nil {
					return // ErrStopped/ErrTimeout end the worker
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(p.Requester())
	}
	// Recorder readers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range rec.Records(32) {
					if v.ReturnNS < v.SubmitNS {
						t.Errorf("torn view: %+v", v)
						return
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	p.Stop() // race Stop against whatever is still in flight
	wg.Wait()
	rec.Records(64) // a post-stop read must not wedge or panic
}

// TestPoolCallFlightZeroAlloc pins the recorder-on hot path at zero
// allocations, sampled and unsampled calls alike, on the healthy path
// and on the timeout path: with the window wedged full, every call gives
// up, and a sampled one closes its preallocated record flagged.
func TestPoolCallFlightZeroAlloc(t *testing.T) {
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: 1, SlotsPerShard: 8, Timeout: 1 << 20})
	rec := flight.New(flight.Options{SampleEvery: 2})
	p.SetFlight(rec)
	cs := rec.Callsite("alloc.op")
	p.Start()
	defer p.Stop()
	r := p.Requester()

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.CallV(VecCall{Data: 1, Site: cs}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-on Call allocates %v per op, want 0", allocs)
	}

	wedged := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 5})
	wrec := flight.New(flight.Options{SampleEvery: 2})
	wedged.SetFlight(wrec)
	cs = wrec.Callsite("alloc.timeout")
	wr := wedged.Requester()
	// Never started: no responder drains the one slot this fills.
	if _, err := submitOne(wr, 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := wr.CallV(VecCall{Data: 1, Site: cs}); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("timed-out Call allocates %v per op, want 0", allocs)
	}
	timedOut := 0
	for _, v := range wrec.Records(64) {
		if v.TimedOut {
			timedOut++
		}
	}
	if timedOut == 0 {
		t.Fatal("no sampled timeout closed its record flagged")
	}
}

// BenchmarkPoolCallFlight is BenchmarkPoolCall with the flight
// recorder attached at production settings — the recorder-on half of
// the EXPERIMENTS.md overhead pair (gate: within 1% of BenchmarkPoolCall).
func BenchmarkPoolCallFlight(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: workers, SlotsPerShard: poolBenchWindow, Timeout: 1 << 20})
	rec := flight.New(flight.Options{})
	p.SetFlight(rec)
	p.Start()
	defer p.Stop()
	reqs := make([]*Requester, workers)
	for i := range reqs {
		reqs[i] = p.Requester()
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchPoolWorkers(b, p, reqs, b.N)
}
