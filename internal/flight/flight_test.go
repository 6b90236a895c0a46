package flight

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeClock is a deterministic injectable nanosecond clock.
type fakeClock struct{ ns atomic.Uint64 }

func (c *fakeClock) now() uint64      { return c.ns.Load() }
func (c *fakeClock) advance(d uint64) { c.ns.Add(d) }
func (c *fakeClock) set(v uint64)     { c.ns.Store(v) }

func newTestRecorder(t *testing.T, shards int, opts Options) (*Recorder, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	clk.set(1) // non-zero epoch so "unstamped" (0) is distinguishable
	opts.Now = clk.now
	r := New(opts)
	r.Bind(shards)
	return r, clk
}

// begin is the fabric's arrival: count the call, and open a record
// for a sampled one.
func begin(r *Recorder, cs Callsite, shard int, callID uint16) *Record {
	if !r.Arrive(cs, shard) {
		return nil
	}
	return r.Open(cs, shard, callID)
}

// play records one complete call timeline through the hot-path API; the
// Complete return path lets the tail sampler see the call's latency.
func play(r *Recorder, clk *fakeClock, cs Callsite, shard, responder int, svcNS uint64) *Record {
	rec := begin(r, cs, shard, 7)
	rec.Context(1, 1, 0)
	clk.advance(100)
	rec.Claim(responder, r.Now())
	clk.advance(50)
	rec.ExecStart(r.Now())
	clk.advance(svcNS)
	rec.ExecEnd(r.Now())
	clk.advance(100)
	r.Complete(rec)
	return rec
}

// folded is how many of the callsite's records Digest has folded into
// its stats: each one with an execute span adds one service sample.
func folded(r *Recorder, cs Callsite) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(cs.id) >= len(r.stats) {
		return 0
	}
	return r.stats[cs.id].service.Snapshot().Count
}

func TestCallsiteRegistration(t *testing.T) {
	r := New(Options{})
	if got := r.CallsiteName(0); got != UnlabelledName {
		t.Fatalf("callsite 0 = %q, want %q", got, UnlabelledName)
	}
	a := r.Callsite("a")
	b := r.Callsite("b")
	if a.ID() != 1 || b.ID() != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", a.ID(), b.ID())
	}
	if again := r.Callsite("a"); again != a {
		t.Fatalf("re-registration not idempotent: %v vs %v", again, a)
	}
	for id := 3; id < maxCallsites; id++ {
		if c := r.Callsite(fmt.Sprintf("site%d", id)); c.ID() != id {
			t.Fatalf("callsite %d registered as id %d", id, c.ID())
		}
	}
	// Table full: falls back to unlabelled.
	if c := r.Callsite("overflow"); c.ID() != 0 {
		t.Fatalf("overflow callsite id = %d, want 0", c.ID())
	}
	var zero Callsite
	if zero.ID() != 0 {
		t.Fatal("zero callsite must be id 0")
	}
}

func TestSamplingAndExactArrivals(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 4})
	cs := r.Callsite("op")
	sampled := 0
	for i := 0; i < 32; i++ {
		if rec := play(r, clk, cs, 0, 0, 10); rec != nil {
			sampled++
		}
	}
	if sampled != 8 {
		t.Fatalf("sampled %d of 32 at SampleEvery=4, want 8", sampled)
	}
	stats := r.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats rows = %d, want 1", len(stats))
	}
	if stats[0].Arrivals != 32 {
		t.Fatalf("arrivals = %d, want 32 (exact despite sampling)", stats[0].Arrivals)
	}
}

func TestCausalTimelineDigest(t *testing.T) {
	r, clk := newTestRecorder(t, 2, Options{SampleEvery: 1})
	get := r.Callsite("get")
	set := r.Callsite("set")

	play(r, clk, get, 0, 0, 1000)
	play(r, clk, set, 1, 1, 3000)

	views := r.Records(16)
	if len(views) != 2 {
		t.Fatalf("records = %d, want 2", len(views))
	}
	for _, v := range views {
		if !(v.SubmitNS < v.ClaimNS && v.ClaimNS < v.ExecStartNS &&
			v.ExecStartNS < v.ExecEndNS && v.ExecEndNS < v.ReturnNS) {
			t.Errorf("causal order violated: %+v", v)
		}
	}
	if views[0].Name != "get" || views[0].Responder != 0 || views[0].Shard != 0 {
		t.Errorf("first record decoded wrong: %+v", views[0])
	}
	if views[1].Name != "set" || views[1].Responder != 1 || views[1].Shard != 1 {
		t.Errorf("second record decoded wrong: %+v", views[1])
	}
	if views[0].CallID != 7 || views[0].Depth != 1 || views[0].Live != 1 {
		t.Errorf("context decoded wrong: %+v", views[0])
	}

	stats := r.Stats()
	byName := map[string]CallsiteStats{}
	for _, cs := range stats {
		byName[cs.Name] = cs
	}
	if svc := byName["set"].ServiceP50NS; svc < 2048 || svc > 4095 {
		t.Errorf("set service p50 = %d, want in 3000's log2 bucket", svc)
	}
	if byName["get"].LastTraceID == 0 {
		t.Error("get has no last trace ID")
	}
}

func TestTimeoutAndFallbackCounts(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	rec := begin(r, cs, 0, 0)
	clk.advance(500)
	r.Timeout(cs, 0, rec)
	r.Fallback(cs)
	r.Timeout(cs, 0, nil) // unsampled timeout still counts

	stats := r.Stats()
	if stats[0].Timeouts != 2 || stats[0].Fallbacks != 1 {
		t.Fatalf("timeouts=%d fallbacks=%d, want 2, 1", stats[0].Timeouts, stats[0].Fallbacks)
	}
	views := r.Records(4)
	if len(views) != 1 || !views[0].TimedOut {
		t.Fatalf("timeout record missing or unflagged: %+v", views)
	}
	if views[0].ExecStartNS != 0 || views[0].Responder != -1 {
		t.Fatalf("timed-out call should have no responder stamps: %+v", views[0])
	}
}

func TestRingWraparound(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	// 3x the ring without digesting: the oldest two rings' worth are lost.
	for i := 0; i < 3*ringRecords; i++ {
		play(r, clk, cs, 0, 0, 10)
	}
	r.Digest()
	if got := folded(r, cs); got != ringRecords {
		t.Fatalf("digested = %d, want %d (one ring's worth)", got, ringRecords)
	}
	if got := r.cursors[0] - folded(r, cs); got != 2*ringRecords {
		t.Fatalf("dropped = %d, want %d", got, 2*ringRecords)
	}
	// Records sees only the live window, all valid.
	views := r.Records(4 * ringRecords)
	if len(views) != ringRecords {
		t.Fatalf("live window = %d records, want %d", len(views), ringRecords)
	}
	// Digest resumes cleanly afterwards.
	play(r, clk, cs, 0, 0, 10)
	r.Digest()
	if got := folded(r, cs); got != ringRecords+1 {
		t.Fatalf("digested after resume = %d, want %d", got, ringRecords+1)
	}
}

func TestDigestStopsAtOpenRecord(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	open := begin(r, cs, 0, 0) // left open
	play(r, clk, cs, 0, 0, 10)
	r.Digest()
	if got := r.cursors[0]; got != 0 {
		t.Fatalf("digested past an open record: %d", got)
	}
	r.Complete(open)
	r.Digest()
	if got := r.cursors[0]; got != 2 {
		t.Fatalf("digested after close = %d, want 2", got)
	}
}

// TestTornRecordDetection crosses a writer wrapping the ring with
// concurrent seqlock readers: every view a reader accepts must be
// internally consistent (monotonic timeline, correct callsite), which
// the generation-encoded seq guarantees.  The readers walk the whole
// ring, so the record the writer reopens next is always under a reader.
func TestTornRecordDetection(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1)
	r := New(Options{SampleEvery: 1, Now: clk.now})
	r.Bind(1)
	cs := r.Callsite("op")

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				for _, v := range r.Records(ringRecords) {
					if v.ReturnNS < v.SubmitNS {
						t.Errorf("torn view escaped seqlock: %+v", v)
						return
					}
					if v.Name != "op" {
						t.Errorf("callsite mixed across generations: %+v", v)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 40*ringRecords; i++ {
		play(r, clk, cs, 0, 0, uint64(i%97))
	}
	close(stop)
	wg.Wait()
}

func TestNilAndUnboundSafety(t *testing.T) {
	var r *Recorder
	if r.Open(Callsite{}, 0, 0) != nil {
		t.Fatal("nil recorder Open must return nil")
	}
	r.Digest()
	r.Stats()
	r.Records(4)
	r.Timeout(Callsite{}, 0, nil)
	r.Fallback(Callsite{})
	r.Stopped(nil)

	unbound := New(Options{})
	if unbound.Arrive(Callsite{}, 0) || unbound.Open(Callsite{}, 0, 0) != nil {
		t.Fatal("unbound recorder must sample nothing")
	}
	if unbound.Arrive(Callsite{}, -1) || unbound.Open(Callsite{}, -1, 0) != nil {
		t.Fatal("negative shard must sample nothing")
	}

	var rec *Record
	rec.Claim(0, 1)
	rec.ExecStart(1)
	rec.ExecEnd(1)
	unbound.Complete(rec)
}

// TestBindTwicePanics: a recorder serves one fabric.  Binding it again
// would strand the first fabric's lanes and records, so it panics, and
// the first binding keeps counting.
func TestBindTwicePanics(t *testing.T) {
	r, clk := newTestRecorder(t, 2, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	play(r, clk, cs, 1, 0, 10)
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "Bind") {
				t.Errorf("second Bind recovered %v, want a Bind panic", p)
			}
		}()
		r.Bind(4)
	}()
	play(r, clk, cs, 1, 0, 10)
	if stats := r.Stats(); len(stats) != 1 || stats[0].Arrivals != 2 {
		t.Fatalf("stats after the refused rebind = %+v, want 2 arrivals on op", stats)
	}
}
