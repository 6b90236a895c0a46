package flight

import (
	"sync"
	"testing"
)

// playComplete is play routed through the Complete return path, so the
// tail sampler sees the call's latency.
func playComplete(r *Recorder, clk *fakeClock, cs Callsite, shard, responder int, svcNS uint64) *Record {
	rec := r.Begin(cs, shard, 7)
	rec.Context(1, 1, 0)
	clk.advance(100)
	rec.Claim(responder, r.Now())
	clk.advance(50)
	rec.ExecStart(r.Now())
	clk.advance(svcNS)
	rec.ExecEnd(r.Now())
	clk.advance(100)
	if rec != nil {
		r.Complete(rec)
	}
	return rec
}

func TestTimeoutEscalatesAndRetainsOutliers(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 256})
	cs := r.Callsite("op")

	// First call is unsampled at SampleEvery=256 …
	rec := r.Begin(cs, 0, 0)
	if rec != nil {
		t.Fatal("first call should be unsampled at SampleEvery=256")
	}
	clk.advance(500)
	// … but its timeout is still retained (synthesized partial record)
	// and escalates the callsite to sample-every-call.
	r.Timeout(cs, 0, rec)

	rec2 := r.Begin(cs, 0, 0)
	if rec2 == nil {
		t.Fatal("escalated callsite should sample every call")
	}
	clk.advance(700)
	r.Timeout(cs, 0, rec2)

	out := r.Outliers(8)
	if len(out) != 2 {
		t.Fatalf("outliers = %d, want 2", len(out))
	}
	// Synthesized record first (submit 0), complete one second.
	if out[0].SubmitNS != 0 || !out[0].TimedOut || out[0].Callsite != cs.ID() {
		t.Fatalf("synthesized outlier wrong: %+v", out[0])
	}
	if out[1].SubmitNS == 0 || !out[1].TimedOut {
		t.Fatalf("escalated timeout should carry a full timeline: %+v", out[1])
	}

	stats := r.Stats()
	if len(stats) != 1 || stats[0].Outliers != 2 || !stats[0].Escalated {
		t.Fatalf("stats = %+v, want 2 outliers escalated", stats)
	}
	if r.OutlierCount(cs.ID()) != 2 {
		t.Fatalf("OutlierCount = %d, want 2", r.OutlierCount(cs.ID()))
	}
}

func TestQuietDigestsDeescalate(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 256})
	cs := r.Callsite("op")

	rec := r.Begin(cs, 0, 0)
	clk.advance(500)
	r.Timeout(cs, 0, rec)
	if r.escalated[cs.ID()].Load() == 0 {
		t.Fatal("timeout should escalate")
	}
	r.Digest() // sees the new outlier: not a quiet digest
	for quiet := 1; quiet < quietDigests; quiet++ {
		r.Digest()
		if r.escalated[cs.ID()].Load() == 0 {
			t.Fatalf("%d quiet digests de-escalated, want %d", quiet, quietDigests)
		}
	}
	r.Digest() // the last quiet digest de-escalates
	if r.escalated[cs.ID()].Load() != 0 {
		t.Fatalf("%d quiet digests should de-escalate", quietDigests)
	}
	// Back to uniform sampling: next arrival is not a stride multiple.
	if rec := r.Begin(cs, 0, 0); rec != nil {
		t.Fatal("de-escalated callsite should be back to 1-in-256")
	}
}

func TestAdaptiveCutoffCapturesLatencyOutliers(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")

	// Calls of ~1ms: tailMultiplier times their p99 is above the floor.
	const svc = 1_000_000
	for i := 0; i < 8; i++ {
		playComplete(r, clk, cs, 0, 0, svc)
	}
	// Before any digest the cutoff is disabled: nothing is an outlier.
	if n := len(r.Outliers(16)); n != 0 {
		t.Fatalf("outliers before first digest = %d, want 0", n)
	}
	r.Digest() // folds the p99, publishes cutoff tailMultiplier*p99
	cut := r.Stats()[0].CutoffNS
	if cut < tailMultiplier*svc/2 || cut > tailMultiplier*svc*2 {
		t.Fatalf("cutoff = %d, want %d times the ~%d ns p99 (within its log2 bucket)", cut, tailMultiplier, svc)
	}

	// Normal calls stay below the cutoff.
	playComplete(r, clk, cs, 0, 0, svc)
	if n := len(r.Outliers(16)); n != 0 {
		t.Fatalf("normal-latency call captured as outlier (cutoff %d)", cut)
	}

	// A straggler above the cutoff is retained…
	playComplete(r, clk, cs, 0, 0, 2*cut)
	out := r.Outliers(16)
	if len(out) != 1 || out[0].TimedOut {
		t.Fatalf("straggler not captured: %+v", out)
	}
	if lat := out[0].ReturnNS - out[0].SubmitNS; lat < cut {
		t.Fatalf("captured latency %d below cutoff %d", lat, cut)
	}
	// Escalation checks read the flag directly: Stats() would digest,
	// and a digest closes the escalation window being tested.
	for n := 1; n < escalateAfter; n++ {
		if r.escalated[cs.ID()].Load() != 0 {
			t.Fatalf("%d stragglers escalated, want %d", n, escalateAfter)
		}
		playComplete(r, clk, cs, 0, 0, 2*cut)
	}
	// …and the escalateAfter-th within the same digest window escalates.
	if r.escalated[cs.ID()].Load() == 0 {
		t.Fatalf("%d stragglers should escalate", escalateAfter)
	}
}

// TestCutoffFloor: on calls far faster than the floor, tailMultiplier
// times their p99 is below minCutoffNS, and the floor is the cutoff —
// a scheduler hiccup on a microsecond call is not an incident.
func TestCutoffFloor(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	for i := 0; i < 8; i++ {
		playComplete(r, clk, cs, 0, 0, 1000) // latency 1250ns
	}
	r.Digest()
	if cut := r.Stats()[0].CutoffNS; cut != minCutoffNS {
		t.Fatalf("cutoff = %d, want the %d ns floor", cut, minCutoffNS)
	}
	playComplete(r, clk, cs, 0, 0, minCutoffNS/2)
	if n := len(r.Outliers(16)); n != 0 {
		t.Fatalf("a call under the floor was captured (%d outliers)", n)
	}
}

// TestTailConcurrentCaptureAndRead drives captures, digests, and
// outlier reads concurrently; meaningful under -race.
func TestTailConcurrentCaptureAndRead(t *testing.T) {
	r, clk := newTestRecorder(t, 2, Options{SampleEvery: 1})
	cs := r.Callsite("op")

	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if i%50 == 49 {
					rec := r.Begin(cs, shard, 0)
					clk.advance(10)
					r.Timeout(cs, shard, rec)
					continue
				}
				svc := uint64(100)
				if i%50 == 24 {
					svc = 2 * minCutoffNS // over the floor: a latency outlier until the p99 catches up
				}
				playComplete(r, clk, cs, shard, 0, svc)
			}
		}(shard)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Digest()
			r.Outliers(64)
			r.Stats()
		}
	}()
	wg.Wait()
	if r.OutlierCount(cs.ID()) == 0 {
		t.Fatal("concurrent run captured no outliers")
	}
}
