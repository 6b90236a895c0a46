package main

import (
	"bytes"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestPmaxKeepsTenSamplesBeyond(t *testing.T) {
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i)
	}
	v, rank := pmax(sorted)
	if v != 989 || rank != 0.99 {
		t.Fatalf("pmax of 0..999 = %v at rank %v, want 989 at 0.99 (ten samples beyond)", v, rank)
	}
	if beyond := len(sorted) - 1 - slices.Index(sorted, uint32(v)); beyond != pmaxBeyond {
		t.Fatalf("%d samples beyond pmax, want %d", beyond, pmaxBeyond)
	}
	// Too few samples for any tail percentile: fall back to the median.
	if v, rank := pmax(sorted[:15]); v != 7 || rank != 0.5 {
		t.Fatalf("pmax of 15 samples = %v at %v, want the median 7 at 0.5", v, rank)
	}
	if v, rank := pmax(nil); v != 0 || rank != 0 {
		t.Fatalf("pmax of nothing = %v at %v", v, rank)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.91, 100}, {1, 100}, {0.01, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMedianSegmentRateIgnoresOneStall(t *testing.T) {
	// Five one-second segments at 100 ops/s, the third stalled to 10.
	edges := []int64{0, 1e9, 2e9, 3e9, 4e9, 5e9}
	total := []uint64{0, 100, 200, 210, 310, 410}
	if got := medianSegmentRate(edges, total); got != 100 {
		t.Fatalf("median segment rate = %v, want 100", got)
	}
	// One unit spanning two segment boundaries leaves coinciding edges,
	// which form no segment of their own.
	edges = []int64{0, 2.5e9, 2.5e9, 3e9}
	total = []uint64{0, 250, 250, 300}
	if got := medianSegmentRate(edges, total); got != 100 {
		t.Fatalf("median segment rate over coinciding edges = %v, want 100", got)
	}
}

func TestRecorderCutsSegmentsAtCompletions(t *testing.T) {
	w := &workload{unitsPerSecCap: 100, sloUs: 1000}
	rec := newRecorder(w, 20*time.Second) // one-second segments
	// A 1.5 s unit of 300 requests, then 0.5 s units of 100.
	rec.note(stepResult{attempted: 300}, 1.5e9, 1.5e9)
	for now := int64(2e9); now <= 6e9; now += 0.5e9 {
		rec.note(stepResult{attempted: 100}, 0.5e9, now)
	}
	if got := rec.opsPerSec(); got != 200 {
		t.Fatalf("ops/s = %v, want 200 in every segment", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{kind: spanRequest, parent: -1, start: 0, end: 100},
		{kind: spanSubmit, parent: 0, start: 10, end: 30},
		{kind: spanWait, parent: 0, start: 30, end: 80},
		// Overlaps the wait and runs past the parent: only 80..100 is new.
		{kind: spanWait, parent: 0, start: 60, end: 120},
		{kind: spanRequest, parent: -1, start: 100, end: 150},
		{kind: spanStream, parent: 4, start: 110, end: 140},
		{kind: spanSubmit, parent: 5, start: 115, end: 120},
	}
	want := []int64{10, 20, 50, 60, 20, 25, 5}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	if got := durationsOf(spans, nil, spanWait); !slices.Equal(got, []uint32{50, 60}) {
		t.Fatalf("wait durations = %v", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchManifest(t *testing.T) {
	m, err := readManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.name) || m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in the benchmark, %q in the manifest", i, w.name, m.Workloads[i].Name)
		}
		if why := m.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(why))
		}
	}
	check := func(kind string, defs []metricDef, got []manifestMetric, bounded bool) {
		if len(defs) != len(got) {
			t.Fatalf("%s: manifest has %d metrics, the benchmark %d", kind, len(got), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			g := got[i]
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: benchmark has %v, manifest {%s %s %s}", kind, i, d, g.Name, g.Unit, g.Better)
			}
			if d.unit == "" || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s %s: needs a unit and a direction", kind, d.name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, d.name, g.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd, true)
	check("per_layer", perLayer, m.PerLayer, false)
	if d := endToEnd[0]; d != (metricDef{"setup_s", "s", "lower"}) {
		t.Errorf("first end-to-end metric is %v, want setup_s", d)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmarks" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// stubKV answers the memcached surface from a map, so the generator can
// be tested without the program.
type stubKV struct {
	store   map[string][]byte
	resp    kvResponse
	corrupt bool // answer GETs with a wrong value
}

func (s *stubKV) Start() {}
func (s *stubKV) Stop()  {}
func (s *stubKV) Do(r *kvRequest) (*kvResponse, error) {
	s.resp = kvResponse{Op: r.Op, Opaque: r.Opaque, Status: kvStatusOK}
	switch {
	case r.Op == kvOpSet:
		s.store[r.Key] = r.Value
	case s.corrupt:
		s.resp.Value = make([]byte, kvValueSize)
	default:
		s.resp.Value = s.store[r.Key]
	}
	return &s.resp, nil
}
func (s *stubKV) Submit(*kvRequest) (kvPending, error) { panic("stub: no async path") }
func (s *stubKV) Wait(kvPending) (*kvResponse, error)  { panic("stub: no async path") }
func newStubGen(t *testing.T, seed uint64) (*kvGen, *stubKV) {
	stub := &stubKV{store: map[string][]byte{}}
	g := newKVGen(seed, 1, stub, nil)
	if err := g.start(); err != nil {
		t.Fatal(err)
	}
	return g, stub
}

func TestGeneratorStepAllocatesNothing(t *testing.T) {
	g, _ := newStubGen(t, 7)
	rec := newRecorder(&workload{unitsPerSecCap: 1 << 20, sloUs: 100}, time.Second)
	base := time.Now()
	i := 0
	allocs := testing.AllocsPerRun(20000, func() {
		r := g.step(i, nil, -1, base)
		rec.note(r, 1000, int64(i)*1000)
		i++
	})
	if allocs != 0 {
		t.Fatalf("generator step allocates %v times per request, want 0", allocs)
	}
	if rec.failed != 0 || rec.attempted != uint64(i) || rec.bytes != uint64(i)*kvValueSize {
		t.Fatalf("stub run: %d attempted, %d failed, %d bytes", rec.attempted, rec.failed, rec.bytes)
	}
}

func TestGeneratorCountsWrongAnswers(t *testing.T) {
	g, stub := newStubGen(t, 7)
	stub.corrupt = true
	base := time.Now()
	var gets, failed uint32
	for i := 0; i < 1000; i++ {
		if g.ops[i]&kvSetBit == 0 {
			gets++
		}
		failed += g.step(i, nil, -1, base).failed
	}
	if gets == 0 || failed != gets {
		t.Fatalf("%d GETs answered with a wrong value, %d counted as failed", gets, failed)
	}
	webOK := func(resp []byte) bool { return webCheck(resp, len(resp)) }
	if webOK([]byte("HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nabc")) {
		t.Fatal("a short body passed the lighttpd check")
	}
	good := append([]byte("HTTP/1.0 200 OK\r\n\r\n"), make([]byte, webPageSize)...)
	if !webOK(good) || webOK(append([]byte("HTTP/1.0 404 Not Found\r\n\r\n"), make([]byte, webPageSize)...)) {
		t.Fatal("lighttpd check does not follow status and body length")
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := newKVGen(11, windowSize, nil, nil), newKVGen(11, windowSize, nil, nil), newKVGen(12, windowSize, nil, nil)
	if !slices.Equal(a.ops, b.ops) || !slices.Equal(a.keys, b.keys) || !bytes.Equal(a.vals[5], b.vals[5]) {
		t.Fatal("two kv generators with one seed differ")
	}
	if slices.Equal(a.ops, c.ops) || slices.Equal(a.keys, c.keys) || bytes.Equal(a.vals[5], c.vals[5]) {
		t.Fatal("kv generators with different seeds agree")
	}
	for i := 0; i < len(a.ops); i += windowSize {
		seen := map[uint32]bool{}
		for _, op := range a.ops[i : i+windowSize] {
			if key := op & kvKeyMask; seen[key] {
				t.Fatalf("key %d repeats inside the window at op %d", key, i)
			} else {
				seen[key] = true
			}
		}
	}
	va, vb, vc := newVPNGen(11, nil), newVPNGen(11, nil), newVPNGen(12, nil)
	if !bytes.Equal(va.wins[3][7], vb.wins[3][7]) || bytes.Equal(va.wins[3][7], vc.wins[3][7]) {
		t.Fatal("vpn payloads do not follow the seed")
	}
	sa, _ := poissonSchedule(11, 20000, time.Second)
	sb, _ := poissonSchedule(11, 20000, time.Second)
	sc, _ := poissonSchedule(12, 20000, time.Second)
	if !slices.Equal(sa, sb) || slices.Equal(sa, sc) {
		t.Fatal("arrival schedule does not follow the seed")
	}
	if n := len(sa); n < 19000 || n > 21000 || !slices.IsSorted(sa) {
		t.Fatalf("schedule at 20000/s for one second has %d arrivals", n)
	}
}

// TestSmokeEveryWorkload runs both passes of every workload briefly: no
// request may fail and every declared metric must come back.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every server several times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			vs, res, err := measure(w, 3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				// How many requests met the latency limit depends on
				// the host's speed; every other metric is never 0.
				if v, ok := vs[d.name]; !ok || (!(v.v > 0) && d.name != "within_slo_share") {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, v.v, ok)
				}
			}
			vs, res, err = trace(w, 3, 0.3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range []string{"core.call_ns", "core.hotcall_ns", "core.submitv_ns_per_call",
				"memcached.encode_ns", "memcached.decode_ns", "lighttpd.parse_ns", "openvpn.seal_ns", "openvpn.open_ns"} {
				if !(vs[name].v > 0) {
					t.Errorf("probe %s = %v, want > 0", name, vs[name].v)
				}
			}
		})
	}
}

func TestSegmentMediansIgnoreOneBurst(t *testing.T) {
	w := &workload{unitsPerSecCap: 1000, sloUs: 50}
	rec := newRecorder(w, 20*time.Second) // one-second segments
	defer rec.free()
	// 100 units a second at 10 us each; the fourth second is a burst of
	// 5 ms latencies that a whole-run p96 or SLO share would pick up.
	for i := 1; i <= 2000; i++ {
		lat := int64(10_000)
		if i > 300 && i <= 400 {
			lat = 5_000_000
		}
		rec.note(stepResult{attempted: 1}, lat, int64(i)*10_000_000)
	}
	pct := rec.segmentPercentiles(0.5, 0.75)
	if pct[0] != 10_000 || pct[1] != 10_000 {
		t.Fatalf("segment-median p50/p75 = %v ns, want 10000: one bad segment must not move them", pct)
	}
	if got := rec.withinShare(); got != 1 {
		t.Fatalf("segment-median within-limit share = %v, want 1", got)
	}
	if whole := percentile(rec.sortedLat(), 0.96); whole != 5_000_000 {
		t.Fatalf("whole-run p96 = %v, the burst should still show in the ungated tail", whole)
	}
}
