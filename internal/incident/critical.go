package incident

import (
	"sort"

	"hotcalls/internal/flight"
)

// flightView keeps the analyzer's signatures readable.
type flightView = flight.RecordView

// Segment is one attributed slice of a call's end-to-end latency.
type Segment struct {
	Name string `json:"name"`
	NS   uint64 `json:"ns"`
}

// CriticalPath is the latency attribution of one captured call: where
// each nanosecond between submit and return went.  Segments telescope
// over the record's causal stamps, so they sum exactly to LatencyNS.
type CriticalPath struct {
	TraceID   uint64 `json:"trace_id"`
	Callsite  int    `json:"callsite"`
	Name      string `json:"name"`
	Shard     int    `json:"shard"`
	Responder int    `json:"responder"`
	// Outcome is "ok", "timeout", or "stopped".
	Outcome   string    `json:"outcome"`
	LatencyNS uint64    `json:"latency_ns"`
	Segments  []Segment `json:"segments"`
}

// Segment names, in causal order.
const (
	// SegQueueWait is submit → responder slot claim: time the call sat
	// posted with no responder picking it up (saturation, sleepers).
	SegQueueWait = "queue-wait"
	// SegDispatch is claim → handler entry: the responder's dispatch
	// overhead between winning the slot and running the handler.
	SegDispatch = "dispatch"
	// SegExecute is the handler's own run time.
	SegExecute = "execute"
	// SegReturn is handler exit → requester wait-return: completion
	// publication plus the requester noticing (poll/wake latency).
	SegReturn = "return"
	// SegUnclaimed is the whole latency of a call no responder ever
	// claimed (timeout or shutdown while still queued).
	SegUnclaimed = "unclaimed"
	// SegUnattributed covers records whose stamps are not causally
	// ordered (torn mid-incident); the total is still exact.
	SegUnattributed = "unattributed"
)

// analyze attributes one record.  Returns false for records that carry
// no usable latency (synthesized partial outliers with submit 0, or a
// missing return stamp).
func analyze(v flightView) (CriticalPath, bool) {
	if v.SubmitNS == 0 || v.ReturnNS < v.SubmitNS {
		return CriticalPath{}, false
	}
	p := CriticalPath{
		TraceID:   v.TraceID,
		Callsite:  v.Callsite,
		Name:      v.Name,
		Shard:     v.Shard,
		Responder: v.Responder,
		Outcome:   "ok",
		LatencyNS: v.ReturnNS - v.SubmitNS,
	}
	switch {
	case v.TimedOut:
		p.Outcome = "timeout"
	case v.Stopped:
		p.Outcome = "stopped"
	}
	switch {
	case v.ClaimNS == 0 && v.ExecStartNS == 0:
		// Never claimed: the whole latency is queue wait.
		p.Segments = []Segment{{SegUnclaimed, p.LatencyNS}}
	case v.SubmitNS <= v.ClaimNS && v.ClaimNS <= v.ExecStartNS &&
		v.ExecStartNS <= v.ExecEndNS && v.ExecEndNS <= v.ReturnNS:
		// Telescoping differences: the four segments sum exactly to
		// LatencyNS by construction.
		p.Segments = []Segment{
			{SegQueueWait, v.ClaimNS - v.SubmitNS},
			{SegDispatch, v.ExecStartNS - v.ClaimNS},
			{SegExecute, v.ExecEndNS - v.ExecStartNS},
			{SegReturn, v.ReturnNS - v.ExecEndNS},
		}
	default:
		p.Segments = []Segment{{SegUnattributed, p.LatencyNS}}
	}
	return p, true
}

// Analyze walks captured timelines and returns the critical-path
// attribution of the slowest max calls (latency descending), with
// timeout/fallback-affected calls kept ahead of equally-slow healthy
// ones.  Duplicate trace IDs (a call retained in both the record and
// outlier rings) are analyzed once.
func Analyze(views []flightView, max int) []CriticalPath {
	if max <= 0 {
		max = 32
	}
	seen := make(map[uint64]bool, len(views))
	var paths []CriticalPath
	for _, v := range views {
		if v.TraceID != 0 && seen[v.TraceID] {
			continue
		}
		p, ok := analyze(v)
		if !ok {
			continue
		}
		seen[v.TraceID] = true
		paths = append(paths, p)
	}
	sort.SliceStable(paths, func(i, j int) bool {
		bad := func(p CriticalPath) bool { return p.Outcome != "ok" }
		if bad(paths[i]) != bad(paths[j]) {
			return bad(paths[i])
		}
		return paths[i].LatencyNS > paths[j].LatencyNS
	})
	if len(paths) > max {
		paths = paths[:max]
	}
	return paths
}
