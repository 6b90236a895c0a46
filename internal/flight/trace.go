package flight

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"hotcalls/internal/telemetry"
)

// Chrome trace rows for flight events live on PID 1, separate from the
// telemetry exporter's cycle-domain rows on PID 0, because the two
// sources run on different time bases (wall-clock ns here, simulated
// cycles there).  Requester timelines get one row per shard, responder
// timelines one row per responder.
const (
	chromePID         = 1
	requesterRowBase  = 100
	responderRowBase  = 200
	unclaimedResponse = -1
)

func usec(ns uint64) float64 { return float64(ns) / 1e3 }

// ChromeEvents converts a causal window of up to max recent records
// into Chrome trace_event form: per-shard requester rows carry the
// full submit→return span of each call, per-responder rows carry the
// claim instant and the execute span (on the requester's own row for a
// call it ran inline).  The result is ready for
// telemetry.WriteChromeJSON: the rows' thread_name records first, in
// ascending row order, so the same records always render the same bytes.
func (r *Recorder) ChromeEvents(max int) []any {
	return ChromeEventsForViews(r.Records(max))
}

// ChromeEventsForViews is ChromeEvents over an explicit set of record
// views — the incident-bundle viewer renders frozen (possibly
// long-dead) timelines through this, with no recorder in hand.
func ChromeEventsForViews(views []RecordView) []any {
	rows := map[int]string{}
	var out []any
	for _, v := range views {
		reqRow := requesterRowBase + v.Shard
		rows[reqRow] = "requester " + itoa(v.Shard)
		args := map[string]any{
			"trace_id": hex(v.TraceID),
			"callsite": v.Name,
			"depth":    v.Depth,
		}
		name := v.Name
		if v.TimedOut {
			name += " (timeout)"
		}
		if v.Stopped {
			name += " (stopped)"
		}
		out = append(out, telemetry.ChromeEvent{
			Name: name, Cat: "flight", Phase: "X",
			TS: usec(v.SubmitNS), Dur: usec(v.ReturnNS - v.SubmitNS),
			PID: chromePID, TID: reqRow, Args: args,
		})
		if v.Responder == unclaimedResponse || v.ExecStartNS == 0 {
			continue
		}
		respRow := responderRowBase + v.Responder
		if v.Responder == InlineResponder {
			respRow = reqRow
		} else {
			rows[respRow] = "responder " + itoa(v.Responder)
		}
		if v.ClaimNS != 0 {
			out = append(out, telemetry.ChromeEvent{
				Name: "claim", Cat: "flight", Phase: "i",
				TS: usec(v.ClaimNS), PID: chromePID, TID: respRow,
				Args: map[string]any{"trace_id": hex(v.TraceID)},
			})
		}
		out = append(out, telemetry.ChromeEvent{
			Name: v.Name, Cat: "flight", Phase: "X",
			TS: usec(v.ExecStartNS), Dur: usec(v.ExecEndNS - v.ExecStartNS),
			PID: chromePID, TID: respRow,
			Args: map[string]any{"trace_id": hex(v.TraceID)},
		})
	}
	tids := make([]int, 0, len(rows))
	for tid := range rows {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	meta := make([]any, 0, len(rows)+len(out))
	for _, tid := range tids {
		meta = append(meta, telemetry.ChromeMetadata{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
			Args: map[string]string{"name": rows[tid]},
		})
	}
	return append(meta, out...)
}

// WriteChromeTrace writes the causal window as a standalone Chrome
// trace_event JSON document.
func (r *Recorder) WriteChromeTrace(w io.Writer, max int) error {
	return telemetry.WriteChromeJSON(w, r.ChromeEvents(max))
}

func itoa(v int) string { return strconv.Itoa(v) }

func hex(v uint64) string { return fmt.Sprintf("0x%x", v) }
