package incident

import (
	"testing"
)

func segSum(p CriticalPath) uint64 {
	var sum uint64
	for _, s := range p.Segments {
		sum += s.NS
	}
	return sum
}

func TestAnalyzeAttributionSumsExactly(t *testing.T) {
	views := []flightView{
		{ // healthy, fully stamped
			TraceID: 1, Name: "a", SubmitNS: 100, ClaimNS: 140,
			ExecStartNS: 150, ExecEndNS: 900, ReturnNS: 1000, Responder: 2,
		},
		{ // timed out, never claimed
			TraceID: 2, Name: "b", SubmitNS: 100, ReturnNS: 50_100,
			TimedOut: true, Responder: -1,
		},
		{ // torn stamps (claim after exec start): unattributed bucket
			TraceID: 3, Name: "c", SubmitNS: 100, ClaimNS: 500,
			ExecStartNS: 200, ExecEndNS: 300, ReturnNS: 700,
		},
	}
	paths := Analyze(views, 0)
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	for _, p := range paths {
		if got := segSum(p); got != p.LatencyNS {
			t.Errorf("%s: segments sum %d != latency %d", p.Name, got, p.LatencyNS)
		}
	}

	byName := map[string]CriticalPath{}
	for _, p := range paths {
		byName[p.Name] = p
	}
	a := byName["a"]
	want := []Segment{
		{SegQueueWait, 40}, {SegDispatch, 10}, {SegExecute, 750}, {SegReturn, 100},
	}
	if len(a.Segments) != len(want) {
		t.Fatalf("a segments = %+v", a.Segments)
	}
	for i, s := range a.Segments {
		if s != want[i] {
			t.Errorf("a segment %d = %+v, want %+v", i, s, want[i])
		}
	}
	if a.Outcome != "ok" {
		t.Errorf("a outcome = %q", a.Outcome)
	}

	b := byName["b"]
	if b.Outcome != "timeout" || len(b.Segments) != 1 || b.Segments[0].Name != SegUnclaimed {
		t.Errorf("unclaimed timeout = %+v", b)
	}
	c := byName["c"]
	if len(c.Segments) != 1 || c.Segments[0].Name != SegUnattributed {
		t.Errorf("torn record = %+v", c)
	}
}

func TestAnalyzeSkipsPartialRecords(t *testing.T) {
	views := []flightView{
		{TraceID: 1, Name: "synth", SubmitNS: 0, ReturnNS: 500, TimedOut: true},
		{TraceID: 2, Name: "backwards", SubmitNS: 900, ReturnNS: 100},
	}
	if paths := Analyze(views, 0); len(paths) != 0 {
		t.Fatalf("partial records produced paths: %+v", paths)
	}
}

func TestAnalyzeDedupAndOrdering(t *testing.T) {
	views := []flightView{
		// Same call retained in both outlier and record rings: outlier
		// copy first wins.
		{TraceID: 7, Name: "dup.outlier", SubmitNS: 100, ReturnNS: 10_100, TimedOut: true, Responder: -1},
		{TraceID: 7, Name: "dup.record", SubmitNS: 100, ReturnNS: 10_100, TimedOut: true, Responder: -1},
		// A slow-but-healthy call, slower than the timeout above.
		{TraceID: 8, Name: "slow.ok", SubmitNS: 100, ClaimNS: 200,
			ExecStartNS: 210, ExecEndNS: 99_000, ReturnNS: 100_100},
		// A fast healthy call.
		{TraceID: 9, Name: "fast.ok", SubmitNS: 100, ClaimNS: 110,
			ExecStartNS: 120, ExecEndNS: 300, ReturnNS: 400},
	}
	paths := Analyze(views, 0)
	if len(paths) != 3 {
		t.Fatalf("paths = %d (dedup failed?): %+v", len(paths), paths)
	}
	// Bad outcomes first, then latency descending.
	if paths[0].Name != "dup.outlier" {
		t.Errorf("timeout not ranked first: %+v", paths[0])
	}
	if paths[1].Name != "slow.ok" || paths[2].Name != "fast.ok" {
		t.Errorf("healthy calls not latency-ordered: %s, %s", paths[1].Name, paths[2].Name)
	}

	// max caps the table.
	if capped := Analyze(views, 2); len(capped) != 2 {
		t.Fatalf("capped = %d, want 2", len(capped))
	}
}
