package core

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"hotcalls/internal/flight"
)

// TestPoolFlightCausalTimeline is the ISSUE's acceptance test: run a
// known scripted workload through the fabric with the recorder
// sampling every call, then reconstruct the causal timelines through
// the /debug/flight endpoint and check every record tells the story in
// order — submit, claim, execute start/end, wait return — attributed
// to the right callsite.
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
		if _, err := r0.CallAt(csEcho, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := r1.CallAt(csBusy, 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(flight.Handler(rec))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/flight?records=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Callsites []flight.CallsiteStats `json:"callsites"`
		Records   []flight.RecordView    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}

	if len(dump.Records) != 12 {
		t.Fatalf("records = %d, want 12", len(dump.Records))
	}
	perSite := map[string]int{}
	for _, v := range dump.Records {
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

	stats := map[string]flight.CallsiteStats{}
	for _, cs := range dump.Callsites {
		stats[cs.Name] = cs
	}
	if stats["script.echo"].Arrivals != 8 || stats["script.busy"].Arrivals != 4 {
		t.Errorf("stats arrivals wrong: %+v", dump.Callsites)
	}
	if stats["script.busy"].ServiceP50NS < spinNS/2 {
		t.Errorf("busy service p50 = %dns, want >= ~%d", stats["script.busy"].ServiceP50NS, spinNS/2)
	}
	if stats["script.echo"].LastTraceID == 0 {
		t.Error("echo stats carry no last trace ID")
	}
}

// TestPoolFlightSubmitWait covers the async path: SubmitAt/Wait must
// close records just like CallAt.
func TestPoolFlightSubmitWait(t *testing.T) {
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d * 2 }},
		PoolOptions{Shards: 1, SlotsPerShard: 8, Timeout: 1 << 20})
	rec := flight.New(flight.Options{SampleEvery: 1})
	p.SetFlight(rec)
	cs := rec.Callsite("async.op")
	p.Start()
	defer p.Stop()

	r := p.Requester()
	var pending []*PoolPending
	for i := 0; i < 8; i++ {
		pd, err := r.SubmitAt(cs, 0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pd)
	}
	for i, pd := range pending {
		ret, err := pd.Wait()
		if err != nil || ret != uint64(i*2) {
			t.Fatalf("wait %d: ret=%d err=%v", i, ret, err)
		}
	}
	rec.Digest()
	if got := rec.Digested(); got != 8 {
		t.Fatalf("digested = %d, want 8", got)
	}
	for _, v := range rec.Records(16) {
		if v.ReturnNS < v.ExecEndNS {
			t.Errorf("async record closed before execute end: %+v", v)
		}
	}
}

// TestPoolFlightStressRace crosses every moving part under the race
// detector: requester traffic with the recorder sampling heavily,
// concurrent Records/Digest/Stats readers, the controller growing and
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
				if _, err := r.CallAt(cs, 0, uint64(i)); err != nil {
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
				rec.Stats() // digests under the hood
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	p.Stop() // race Stop against whatever is still in flight
	wg.Wait()
	rec.Digest() // post-stop digest must not wedge or panic
}

// TestPoolCallFlightZeroAlloc pins the recorder-on hot path at zero
// allocations, sampled and unsampled calls alike, with the tail sampler
// running: the Complete cutoff check is a plain load + compare, and the
// outlier rings are preallocated at Bind.
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
		if _, err := r.CallAt(cs, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-on Call allocates %v per op, want 0", allocs)
	}
	if n := len(rec.Outliers(16)); n != 0 {
		t.Fatalf("healthy sub-ms calls captured %d outliers, want 0", n)
	}
}

// TestPoolCallTailSamplerZeroAlloc pins the tail sampler's capture path
// at zero allocations: with the window wedged full every call times
// out, and each timeout — sampled or not — is copied into the outlier
// ring preallocated at Bind.
func TestPoolCallTailSamplerZeroAlloc(t *testing.T) {
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: 1, SlotsPerShard: 1, Timeout: 5})
	rec := flight.New(flight.Options{SampleEvery: 2})
	p.SetFlight(rec)
	cs := rec.Callsite("alloc.tail")
	r := p.Requester()
	// Never started: no responder drains the one slot this fills.
	if _, err := r.Submit(0, 0); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.CallAt(cs, 0, 1); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("timed-out Call allocates %v per op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the runs.
	if n := rec.OutlierCount(cs.ID()); n != runs+1 {
		t.Fatalf("OutlierCount = %d, want %d timeouts", n, runs+1)
	}
	if n := len(rec.Outliers(16)); n != 16 {
		t.Fatalf("outlier ring holds %d records, want 16", n)
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
