package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span kinds the generator records around its calls into the program.
const (
	spanRequest uint8 = iota // one request or one window; the root
	spanSubmit               // Conn.Submit
	spanWait                 // PendingResponse.Wait
	spanStream               // Conn.Stream
	spanCell                 // one simulated app x mode cell
	spanKinds
)

var spanNames = [spanKinds]string{"loadgen.request", "core.submit", "core.wait", "openvpn.stream", "porting.cell"}

// span is one interval at a layer boundary; spans of one request share
// req, and parent indexes the span that caused this one (-1 for a root).
type span struct {
	kind       uint8
	parent     int32
	req        uint32
	start, end int64 // ns since the run's base
}

// tracer keeps spans in a preallocated off-heap buffer and writes them
// out when the benchmark ends.  A nil tracer records nothing.
type tracer struct {
	spans []span
	free  func()
}

// traceCap bounds the spans one traced run keeps (32 B each);
// traceFileSpans bounds how many of them reach the JSON file.
const (
	traceCap       = 1 << 20
	traceFileSpans = 1 << 16
)

func newTracer() *tracer {
	spans, free := offHeap[span](traceCap)
	return &tracer{spans: spans, free: free}
}

// room reports whether a unit of up to n more spans still fits.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= cap(t.spans) }

// add records a finished span and returns its index.
func (t *tracer) add(kind uint8, parent int32, req uint32, start, end int64) int32 {
	t.spans = append(t.spans, span{kind, parent, req, start, end})
	return int32(len(t.spans) - 1)
}

// begin returns the start instant of a span about to be recorded, and end
// records it; on a nil tracer both do nothing, so the untraced path pays
// one branch and no clock read.
func (t *tracer) begin(base time.Time) int64 {
	if t == nil {
		return 0
	}
	return now(base)
}

func (t *tracer) end(kind uint8, parent int32, req uint32, start int64, base time.Time) {
	if t != nil {
		t.add(kind, parent, req, start, now(base))
	}
}

// open records a span whose end is not known yet.
func (t *tracer) open(kind uint8, parent int32, req uint32, start int64) int32 {
	return t.add(kind, parent, req, start, start)
}

func (t *tracer) close(i int32, end int64) { t.spans[i].end = end }

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	// Children grouped by parent: off[p]..off[p+1] indexes kids.
	off := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			off[s.parent+1]++
		}
	}
	for i := range spans {
		off[i+1] += off[i]
	}
	kids := make([]int32, off[len(spans)])
	fill := slices.Clone(off[:len(spans)])
	for i, s := range spans {
		if s.parent >= 0 {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[off[i]:off[i+1]]
		if len(ks) > 1 {
			slices.SortFunc(ks, func(a, b int32) int { return cmp.Compare(spans[a].start, spans[b].start) })
		}
		covered := s.start
		for _, k := range ks {
			from, to := max(spans[k].start, covered), min(spans[k].end, s.end)
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// durationsOf returns the ascending durations (self times when self is
// non-nil) of every span of one kind, in ns.
func durationsOf(spans []span, self []int64, kind uint8) []uint32 {
	var out []uint32
	for i, s := range spans {
		if s.kind != kind {
			continue
		}
		d := s.end - s.start
		if self != nil {
			d = self[i]
		}
		out = append(out, uint32(max(d, 0)))
	}
	slices.Sort(out)
	return out
}

// writeTrace writes the first traceFileSpans spans as
// benchmarks/out/trace-<workload>.json: one [name, start_ns, end_ns,
// parent, request] row per span.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"recorded\":%d,\"spans\":[", workload, len(spans))
	for i, s := range spans[:min(len(spans), traceFileSpans)] {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%q,%d,%d,%d,%d]", spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}
