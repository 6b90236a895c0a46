package porting

import (
	"fmt"
	"sort"
	"strings"

	"hotcalls/internal/sim"
)

// Profile attributes simulated cycles to named categories with self-time
// semantics: a section's cycles exclude its nested sections.  The porting
// layer opens sections around edge calls and TLB refills; applications
// open their own around crypto, data-store, and compute phases.  The
// result reproduces the paper's core-time accounting (Table 2: memcached
// spends 42% of its core merely facilitating calls) from the inside.
//
// The zero value is unusable; attach one with App.EnableProfile.
type Profile struct {
	totals map[string]uint64
	stack  []profSection
}

type profSection struct {
	name        string
	start       uint64
	childCycles uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{totals: make(map[string]uint64)}
}

// Enter opens a section; the returned closure closes it.  Sections nest:
// cycles spent in inner sections are excluded from the outer section's
// self time.
func (p *Profile) Enter(clk *sim.Clock, name string) func() {
	p.stack = append(p.stack, profSection{name: name, start: clk.Now()})
	depth := len(p.stack)
	return func() {
		if len(p.stack) != depth {
			panic("porting: profile sections closed out of order")
		}
		s := p.stack[depth-1]
		p.stack = p.stack[:depth-1]
		elapsed := clk.Now() - s.start
		self := elapsed - s.childCycles
		p.totals[s.name] += self
		if depth >= 2 {
			p.stack[depth-2].childCycles += elapsed
		}
	}
}

// Totals returns a copy of the per-category self-time cycles.
func (p *Profile) Totals() map[string]uint64 {
	out := make(map[string]uint64, len(p.totals))
	for k, v := range p.totals {
		out[k] = v
	}
	return out
}

// Total returns all attributed cycles.
func (p *Profile) Total() uint64 {
	var t uint64
	for _, v := range p.totals {
		t += v
	}
	return t
}

// String renders the breakdown largest-first.
func (p *Profile) String() string {
	type row struct {
		name   string
		cycles uint64
	}
	rows := make([]row, 0, len(p.totals))
	for name, c := range p.totals {
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cycles > rows[j].cycles })
	total := p.Total()
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12d cycles  %5.1f%%\n", r.name, r.cycles, float64(r.cycles)/float64(total)*100)
	}
	return b.String()
}

// Profile category names used by the porting layer.
const (
	CatEdgeCalls = "edge-calls" // interface crossings incl. kernel service
	CatTLB       = "tlb-refills"
	CatAppWork   = "app-compute"
	CatDataStore = "data-store"
	CatCrypto    = "crypto"
)

// EnableProfile attaches a profiler to the app and returns it.  The
// porting layer then attributes edge-call and TLB-refill cycles; the
// application attributes its own phases through Env.Section.
func (a *App) EnableProfile() *Profile {
	a.Prof = NewProfile()
	return a.Prof
}

// Section opens a named profile section when profiling is enabled, and is
// a no-op closure otherwise.
func (e *Env) Section(name string) func() {
	if e.App.Prof == nil {
		return func() {}
	}
	return e.App.Prof.Enter(e.Clk, name)
}
