// Package profile is the cycle-attribution profiler: it folds the
// telemetry tracer's boundary-event stream into weighted call trees and
// attributes every simulated cycle of every call to a cost category —
// microcode, marshalling, spin-wait, cache-line movement, MEE integrity
// tree work, EPC paging, or handler execution.
//
// The paper's core evidence is exactly this attribution (Table 1's
// crossing medians, the Section 3.2/3.3 breakdowns, Table 2's "% of core
// time facilitating calls"); the profiler reproduces those shapes from
// *traces* of a live workload instead of analytic formulas, and the two
// are cross-validated against each other in TestCrossValidation.
//
// # Event model
//
// Instrumented code emits each event when its span completes, stamped
// with the span's start (TS) and length (Dur) on the simulated clock.
// Two consequences shape the tree builder:
//
//   - Children always precede their parent in the stream (the parent
//     completes last), so a parent adopts already-emitted spans.
//   - Within one clock domain, event *end* times are non-decreasing.
//     A decrease means the workload reset its clock (the harness starts
//     a fresh sim.Clock per measured run); the builder then closes all
//     open trees and starts over, so per-run traces degrade gracefully
//     into forests instead of mis-nesting.
//
// Deep tracing (telemetry.Registry.EnableDeepTracing) adds the per-phase
// and per-memory-operation events the attribution needs; with only the
// default boundary tracing the profiler still builds call trees but
// attributes whole calls to their dominant category.
//
// Exports: folded flame-graph stacks (WriteFolded, flamegraph.pl and
// speedscope compatible) and markdown breakdown tables (WriteCallTable,
// WriteCategoryTable).
package profile

import (
	"sort"

	"hotcalls/internal/telemetry"
)

// Category is a cost bucket for attributed cycles.
type Category uint8

// Attribution categories, mirroring the paper's cost decomposition.
const (
	CatMicrocode Category = iota // EENTER/EEXIT/ERESUME/AEX fixed microcode
	CatMarshal                   // SDK software path: prep, dispatch, staging, copy-out
	CatSpin                      // HotCall shared-memory synchronization
	CatCache                     // cache-line movement (hits, DRAM, write-backs)
	CatMEE                       // memory-encryption-engine integrity tree work
	CatEPC                       // EPC paging: fault traps, ELDU, EWB
	CatHandler                   // the called function's own body
	CatOther                     // anything unclassified
	NumCategories
)

// String returns the category's table label.
func (c Category) String() string {
	switch c {
	case CatMicrocode:
		return "microcode"
	case CatMarshal:
		return "marshal"
	case CatSpin:
		return "spin"
	case CatCache:
		return "cache"
	case CatMEE:
		return "mee"
	case CatEPC:
		return "epc"
	case CatHandler:
		return "handler"
	}
	return "other"
}

// Span is one node of a reconstructed call tree.
type Span struct {
	Event    telemetry.Event
	Children []*Span
}

// End returns the span's exclusive end timestamp.
func (s *Span) End() uint64 { return s.Event.TS + s.Event.Dur }

// Self returns the span's self time: its duration minus its children's,
// clamped at zero against accounting drift.
func (s *Span) Self() uint64 {
	d := s.Event.Dur
	for _, c := range s.Children {
		cd := c.Event.Dur
		if cd > d {
			cd = d
		}
		d -= cd
	}
	return d
}

// BuildTrees folds an event stream (oldest first, as returned by
// telemetry.Tracer.Events) into a forest of spans.  Each event adopts
// the already-pooled spans its [TS, TS+Dur] interval contains; because
// events are emitted at completion on a monotone clock, those are
// exactly the pooled spans with TS at or after its own, so adoption is
// a suffix pop.  An end-time regression (fresh sim.Clock per measured
// run) or an exact repeat of the previous event (coarse traces of
// identical runs on reset clocks) closes all open trees first.
func BuildTrees(events []telemetry.Event) []*Span {
	var roots, pool []*Span
	var watermark uint64
	flush := func() {
		roots = append(roots, pool...)
		pool = pool[:0]
	}
	for _, e := range events {
		end := e.TS + e.Dur
		if end < watermark {
			flush()
		} else if n := len(pool); n > 0 {
			if last := pool[n-1].Event; last.Kind == e.Kind && last.Name == e.Name &&
				last.TS == e.TS && last.Dur == e.Dur {
				flush()
			}
		}
		watermark = end
		s := &Span{Event: e}
		cut := len(pool)
		for cut > 0 && pool[cut-1].Event.TS >= e.TS {
			cut--
		}
		if cut < len(pool) {
			s.Children = append(s.Children, pool[cut:]...)
			pool = pool[:cut]
		}
		pool = append(pool, s)
	}
	flush()
	return roots
}

// callKind reports whether a span kind opens a logical call context: its
// subtree is attributed to its own per-call breakdown, not the caller's.
func callKind(k telemetry.Kind) bool {
	switch k {
	case telemetry.KindEcall, telemetry.KindOcall, telemetry.KindHotECall, telemetry.KindHotOCall:
		return true
	}
	return false
}

// Breakdown accumulates attributed cycles for one call site (one event
// name, e.g. "ecall:ecall_empty" or "hotecall:ecall_empty").
type Breakdown struct {
	Calls  uint64
	Total  uint64 // cycles attributed to this site across all calls
	Cycles [NumCategories]uint64

	durs []uint64 // per-call durations, for Median
}

// Mean returns the average attributed cycles per call.
func (b *Breakdown) Mean() float64 {
	if b.Calls == 0 {
		return 0
	}
	return float64(b.Total) / float64(b.Calls)
}

// PerCall returns the average cycles per call in one category.
func (b *Breakdown) PerCall(c Category) float64 {
	if b.Calls == 0 {
		return 0
	}
	return float64(b.Cycles[c]) / float64(b.Calls)
}

// Share returns the category's fraction of the site's attributed cycles.
func (b *Breakdown) Share(c Category) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Cycles[c]) / float64(b.Total)
}

// Speedup predicts the relative throughput change of this site's
// workload (0.07 = +7%) if category c ran delta faster.  The simulated
// fabric is a serial cycle stream, so throughput Calls/Total becomes
// Calls/(Total − delta·Cycles[c]) and the category's share is the whole
// derivative: the gain is s·delta/(1 − s·delta) for share s.
// TestSpeedupAppliedSim checks it against the cost model actually
// scaled.
func (b *Breakdown) Speedup(c Category, delta float64) float64 {
	sd := b.Share(c) * delta
	return sd / (1 - sd)
}

// Median returns the median call duration.  Note this is the span
// duration (including nested calls), matching what Table 1 reports.
func (b *Breakdown) Median() uint64 {
	if len(b.durs) == 0 {
		return 0
	}
	d := append([]uint64(nil), b.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// Profile is an analyzed trace: the reconstructed forest plus per-call-
// site attribution.
type Profile struct {
	Roots []*Span
	Calls map[string]*Breakdown

	// OutsideCycles counts self time of spans not enclosed by any call
	// (enclave build, harness warm-up on a traced registry, orphans from
	// clock-domain flushes).
	OutsideCycles uint64
}

// Analyze builds trees from an event stream and attributes every span's
// self time to its enclosing call's breakdown.
func Analyze(events []telemetry.Event) *Profile {
	p := &Profile{Roots: BuildTrees(events), Calls: make(map[string]*Breakdown)}
	for _, r := range p.Roots {
		p.walk(r, nil)
	}
	return p
}

// Names returns the call-site names in sorted order.
func (p *Profile) Names() []string {
	names := make([]string, 0, len(p.Calls))
	for name := range p.Calls {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (p *Profile) walk(s *Span, b *Breakdown) {
	if callKind(s.Event.Kind) {
		nb := p.Calls[s.Event.Name]
		if nb == nil {
			nb = &Breakdown{}
			p.Calls[s.Event.Name] = nb
		}
		nb.Calls++
		nb.durs = append(nb.durs, s.Event.Dur)
		b = nb
	}
	self := s.Self()
	if b == nil {
		p.OutsideCycles += self
	} else {
		b.Total += self
		attributeSelf(s, self, &b.Cycles)
	}
	for _, c := range s.Children {
		p.walk(c, b)
	}
}

// attributeSelf charges a span's self time into the per-category cycle
// vector: the attribution table.
func attributeSelf(s *Span, self uint64, cyc *[NumCategories]uint64) {
	switch s.Event.Kind {
	case telemetry.KindEEnter, telemetry.KindEExit, telemetry.KindEResume, telemetry.KindAEX:
		cyc[CatMicrocode] += self
	case telemetry.KindEcall, telemetry.KindOcall, telemetry.KindMarshal:
		// A call span's own self time is the SDK software path:
		// prep, dispatch, glue, epilogue — all marshalling-side work.
		cyc[CatMarshal] += self
	case telemetry.KindHotECall, telemetry.KindHotOCall, telemetry.KindSpin:
		// Residual HotCall-span self time is protocol cost.
		cyc[CatSpin] += self
	case telemetry.KindHandler:
		cyc[CatHandler] += self
	case telemetry.KindMemAccess:
		// Arg carries the MEE-extra cycles of the operation; the
		// rest is raw cache-line movement.
		mee := s.Event.Arg
		if mee > self {
			mee = self
		}
		cyc[CatMEE] += mee
		cyc[CatCache] += self - mee
	case telemetry.KindEPCFault, telemetry.KindEWB:
		cyc[CatEPC] += self
	case telemetry.KindMEEMiss:
		cyc[CatMEE] += self
	default:
		cyc[CatOther] += self
	}
}
