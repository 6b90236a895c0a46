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
	if !r.Arrive(shard) {
		return nil
	}
	return r.Open(cs, shard, callID)
}

// play records one complete call timeline through the hot-path API.
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

func TestCallsiteRegistration(t *testing.T) {
	r := New(Options{})
	if got := r.CallsiteName(0); got != UnlabelledName {
		t.Fatalf("callsite 0 = %q, want %q", got, UnlabelledName)
	}
	a := r.Callsite("a")
	b := r.Callsite("b")
	if a.id != 1 || b.id != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", a.id, b.id)
	}
	if again := r.Callsite("a"); again != a {
		t.Fatalf("re-registration not idempotent: %v vs %v", again, a)
	}
	for id := 3; id < maxCallsites; id++ {
		if c := r.Callsite(fmt.Sprintf("site%d", id)); int(c.id) != id {
			t.Fatalf("callsite %d registered as id %d", id, c.id)
		}
	}
	// Table full: falls back to unlabelled.
	if c := r.Callsite("overflow"); c.id != 0 {
		t.Fatalf("overflow callsite id = %d, want 0", c.id)
	}
	var zero Callsite
	if zero.id != 0 {
		t.Fatal("zero callsite must be id 0")
	}
}

// TestSamplingAndExactArrivals: the shard's stride counter counts every
// arrival, so exactly every SampleEvery-th call carries a record.
func TestSamplingAndExactArrivals(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 4})
	cs := r.Callsite("op")
	var sampled []int
	for i := 0; i < 32; i++ {
		if rec := play(r, clk, cs, 0, 0, 10); rec != nil {
			sampled = append(sampled, i)
		}
	}
	if len(sampled) != 8 {
		t.Fatalf("sampled %d of 32 at SampleEvery=4, want 8", len(sampled))
	}
	for k, i := range sampled {
		if i != 4*k+3 {
			t.Fatalf("sampled calls %v, want every 4th arrival", sampled)
		}
	}
	if n := len(r.Records(64)); n != 8 {
		t.Fatalf("records = %d, want 8", n)
	}
}

func TestCausalTimeline(t *testing.T) {
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

	if svc := views[1].ExecEndNS - views[1].ExecStartNS; svc != 3000 {
		t.Errorf("set service = %dns, want 3000", svc)
	}
	if views[0].TraceID == 0 || views[0].TraceID == views[1].TraceID {
		t.Errorf("trace IDs not distinct: %d, %d", views[0].TraceID, views[1].TraceID)
	}
}

// TestTimeoutClosesRecord: a sampled call that gives up on a full window
// closes its record flagged, with no responder stamps.
func TestTimeoutClosesRecord(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	rec := begin(r, cs, 0, 0)
	clk.advance(500)
	r.Timeout(rec)
	r.Timeout(nil) // an unsampled timeout has no record to close

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
	// 3x the ring: the oldest two rings' worth are overwritten.
	for i := 0; i < 3*ringRecords; i++ {
		play(r, clk, cs, 0, 0, 10)
	}
	// Records sees only the live window, all valid and in order.
	views := r.Records(4 * ringRecords)
	if len(views) != ringRecords {
		t.Fatalf("live window = %d records, want %d", len(views), ringRecords)
	}
	if first, want := views[0].TraceID&(1<<40-1), uint64(2*ringRecords); first != want {
		t.Fatalf("oldest live record is generation %d, want %d", first, want)
	}
}

// TestRecordsSkipOpenRecord: a record still open is not read back; once
// closed it is.
func TestRecordsSkipOpenRecord(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	open := begin(r, cs, 0, 0) // left open
	play(r, clk, cs, 0, 0, 10)
	if n := len(r.Records(4)); n != 1 {
		t.Fatalf("records with one open = %d, want 1", n)
	}
	r.Complete(open)
	if n := len(r.Records(4)); n != 2 {
		t.Fatalf("records after close = %d, want 2", n)
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
	r.Records(4)
	r.Timeout(nil)
	r.Stopped(nil)

	unbound := New(Options{})
	if unbound.Arrive(0) || unbound.Open(Callsite{}, 0, 0) != nil {
		t.Fatal("unbound recorder must sample nothing")
	}
	if unbound.Arrive(-1) || unbound.Open(Callsite{}, -1, 0) != nil {
		t.Fatal("negative shard must sample nothing")
	}

	var rec *Record
	rec.Claim(0, 1)
	rec.ExecStart(1)
	rec.ExecEnd(1)
	unbound.Complete(rec)
}

// TestBindTwicePanics: a recorder serves one fabric.  Binding it again
// would strand the first fabric's records, so it panics, and the first
// binding keeps recording.
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
	if views := r.Records(4); len(views) != 2 || views[1].Shard != 1 {
		t.Fatalf("records after the refused rebind = %+v, want 2 on shard 1", views)
	}
}
