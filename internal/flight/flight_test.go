package flight

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hotcalls/internal/telemetry"
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
	if got := r.Digested(); got != ringRecords {
		t.Fatalf("digested = %d, want %d (one ring's worth)", got, ringRecords)
	}
	if got := r.Dropped(); got != 2*ringRecords {
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
	if got := r.Digested(); got != ringRecords+1 {
		t.Fatalf("digested after resume = %d, want %d", got, ringRecords+1)
	}
}

func TestDigestStopsAtOpenRecord(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	open := begin(r, cs, 0, 0) // left open
	play(r, clk, cs, 0, 0, 10)
	r.Digest()
	if got := r.Digested(); got != 0 {
		t.Fatalf("digested past an open record: %d", got)
	}
	r.Complete(open)
	r.Digest()
	if got := r.Digested(); got != 2 {
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

func TestRenderText(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("mc.get")
	play(r, clk, cs, 0, 0, 1500)
	out := r.RenderText()
	for _, want := range []string{"callsite", "mc.get", "last trace", "µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderText missing %q:\n%s", want, out)
		}
	}
	var nilRec *Recorder
	if got := nilRec.RenderText(); !strings.Contains(got, "disabled") {
		t.Errorf("nil recorder RenderText = %q", got)
	}
}

func TestHandlerFormats(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	play(r, clk, cs, 0, 0, 2000)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Callsites []CallsiteStats `json:"callsites"`
		Records   []RecordView    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dump.Callsites) != 1 || dump.Callsites[0].Name != "op" {
		t.Fatalf("JSON callsites = %+v", dump.Callsites)
	}
	if len(dump.Records) != 1 || dump.Records[0].ExecEndNS-dump.Records[0].ExecStartNS != 2000 {
		t.Fatalf("JSON records = %+v", dump.Records)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/flight?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var rows, spans int
	for _, e := range trace.TraceEvents {
		switch e["ph"] {
		case "M":
			rows++
		case "X":
			spans++
		}
	}
	if rows < 2 || spans != 2 {
		t.Fatalf("chrome trace rows=%d spans=%d, want >=2 rows (requester+responder) and 2 spans", rows, spans)
	}
}

// TestChromeEventsInlineOnRequesterRow: a call its requester ran itself
// keeps the InlineResponder identity through the record view, and the
// Chrome export draws its claim and execute span on the requester's row
// instead of inventing a responder row for it.
func TestChromeEventsInlineOnRequesterRow(t *testing.T) {
	r, clk := newTestRecorder(t, 2, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	play(r, clk, cs, 1, InlineResponder, 2000)
	views := r.Records(8)
	if len(views) != 1 || views[0].Responder != InlineResponder {
		t.Fatalf("record views = %+v, want one claimed by InlineResponder", views)
	}
	var spans int
	for _, e := range ChromeEventsForViews(views) {
		switch e := e.(type) {
		case telemetry.ChromeMetadata:
			if e.TID != requesterRowBase+1 {
				t.Errorf("row %d %q declared for an inline call, want only the requester's", e.TID, e.Args["name"])
			}
		case telemetry.ChromeEvent:
			if e.TID != requesterRowBase+1 {
				t.Errorf("event %q on row %d, want the requester's row %d", e.Name, e.TID, requesterRowBase+1)
			}
			if e.Phase == "X" {
				spans++
			}
		}
	}
	if spans != 2 {
		t.Errorf("%d spans, want the call and its execution", spans)
	}
}

// TestChromeEventsDeterministic: the same frozen records render the same
// bytes on every call — an incident bundle's trace view must not reorder
// its rows between two fetches.  Two shards and two responders give the
// export four rows to name.
func TestChromeEventsDeterministic(t *testing.T) {
	r, clk := newTestRecorder(t, 2, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	for i := 0; i < 4; i++ {
		play(r, clk, cs, i%2, i/2, 1000)
	}
	views := r.Records(8)
	render := func() string {
		var b strings.Builder
		if err := telemetry.WriteChromeJSON(&b, ChromeEventsForViews(views)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	if rows := strings.Count(first, `"thread_name"`); rows != 4 {
		t.Fatalf("%d rows named, want 2 requesters + 2 responders:\n%s", rows, first)
	}
	for i := 0; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i+2, again, first)
		}
	}
}

// TestHandlerContentTypes pins the debug endpoint contract: every
// format sets an explicit Content-Type and unknown formats are a 400,
// so dashboards and curl pipelines never have to sniff.
func TestHandlerContentTypes(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	cs := r.Callsite("op")
	play(r, clk, cs, 0, 0, 2000)
	h := Handler(r)

	cases := []struct {
		query  string
		code   int
		ct     string
		within string
	}{
		{"", 200, telemetry.ContentTypeJSON, `"callsites"`},
		{"?format=json", 200, telemetry.ContentTypeJSON, `"callsites"`},
		{"?format=text", 200, telemetry.ContentTypeText, "op"},
		{"?format=trace", 200, telemetry.ContentTypeJSON, "traceEvents"},
		{"?format=yaml", 400, "", ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight"+c.query, nil))
		if rec.Code != c.code {
			t.Errorf("%q: status = %d, want %d", c.query, rec.Code, c.code)
			continue
		}
		if c.ct != "" && rec.Header().Get("Content-Type") != c.ct {
			t.Errorf("%q: content-type = %q, want %q", c.query, rec.Header().Get("Content-Type"), c.ct)
		}
		if c.within != "" && !strings.Contains(rec.Body.String(), c.within) {
			t.Errorf("%q: body missing %q", c.query, c.within)
		}
	}
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

// TestWritePrometheus checks the scrapeable per-callsite surface: the
// exact counts and the tail latencies appear as labelled series.
func TestWritePrometheus(t *testing.T) {
	r, clk := newTestRecorder(t, 1, Options{SampleEvery: 1})
	get := r.Callsite("mc.get")
	set := r.Callsite("mc.set")
	for i := 0; i < 8; i++ {
		play(r, clk, get, 0, 0, 1000)
	}
	play(r, clk, set, 0, 0, 2000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE flight_callsite_arrivals_total counter",
		`flight_callsite_arrivals_total{callsite="mc.get"} 8`,
		`flight_callsite_arrivals_total{callsite="mc.set"} 1`,
		`flight_callsite_latency_p99_ns{callsite="mc.get"}`,
		`flight_callsite_outliers_total{callsite="mc.set"} 0`,
		"# TYPE flight_callsite_service_p50_ns gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var empty *Recorder
	if err := empty.WritePrometheus(&sb); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
}
