package cache

import (
	"fmt"
	"testing"

	"hotcalls/internal/sim"
)

// refCache is the slice-of-slices true-LRU model the flat Cache replaced,
// copied as it stood, kept as the oracle: every simulated statistic in the
// repo was calibrated against its hit/miss/victim sequence.  It holds whole
// line numbers, so no address is beyond it.
type refCache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	sets      [][]refEntry // sets[i] is LRU-ordered, front = most recent
	accesses  uint64
	misses    uint64
}

type refEntry struct {
	line  uint64 // line number (addr >> lineShift)
	dirty bool
	valid bool
}

func newRef(cfg Config) *refCache {
	flat := New[uint64](cfg) // validates the geometry and derives shift and mask
	c := &refCache{cfg: cfg, lineShift: flat.lineShift, setMask: flat.setMask, sets: make([][]refEntry, flat.setMask+1)}
	for i := range c.sets {
		c.sets[i] = make([]refEntry, 0, cfg.Ways)
	}
	return c
}

func (c *refCache) lineOf(addr uint64) uint64 { return addr >> c.lineShift }

func (c *refCache) setOf(line uint64) int { return int(line & c.setMask) }

func (c *refCache) Probe(addr uint64) bool {
	line := c.lineOf(addr)
	for _, e := range c.sets[c.setOf(line)] {
		if e.valid && e.line == line {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	c.accesses++
	line := c.lineOf(addr)
	set := c.setOf(line)
	ways := c.sets[set]
	for i, e := range ways {
		if e.valid && e.line == line {
			// Hit: move to MRU position.
			if write {
				e.dirty = true
			}
			copy(ways[1:i+1], ways[:i])
			ways[0] = e
			return true, Victim{}
		}
	}
	c.misses++
	// Miss: fill, evicting LRU if the set is full.
	e := refEntry{line: line, dirty: write, valid: true}
	if len(ways) < c.cfg.Ways {
		ways = append(ways, refEntry{})
		copy(ways[1:], ways[:len(ways)-1])
		ways[0] = e
		c.sets[set] = ways
		return false, Victim{}
	}
	lru := ways[len(ways)-1]
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = e
	return false, Victim{
		Addr:  lru.line << c.lineShift,
		Dirty: lru.dirty,
		Valid: true,
	}
}

// Sweep is the line-by-line loop Cache.Sweep batches: one Access per line,
// up to and including the first miss.
func (c *refCache) Sweep(addr uint64, n int, write bool) (hits int, missed bool, victim Victim) {
	for ; hits < n; hits++ {
		if hit, v := c.Access(addr+uint64(hits)*uint64(c.cfg.LineSize), write); !hit {
			return hits, true, v
		}
	}
	return hits, false, Victim{}
}

func (c *refCache) Flush(addr uint64) (present, dirty bool) {
	line := c.lineOf(addr)
	set := c.setOf(line)
	ways := c.sets[set]
	for i, e := range ways {
		if e.valid && e.line == line {
			c.sets[set] = append(ways[:i], ways[i+1:]...)
			return true, e.dirty
		}
	}
	return false, false
}

func (c *refCache) FlushRange(addr, size uint64) (dirtyLines int) {
	if size == 0 {
		return 0
	}
	first := c.lineOf(addr)
	last := c.lineOf(addr + size - 1)
	for line := first; line <= last; line++ {
		if _, d := c.Flush(line << c.lineShift); d {
			dirtyLines++
		}
	}
	return dirtyLines
}

func (c *refCache) FlushAll() (dirtyLines int) {
	for i, ways := range c.sets {
		for _, e := range ways {
			if e.valid && e.dirty {
				dirtyLines++
			}
		}
		c.sets[i] = c.sets[i][:0]
	}
	return dirtyLines
}

func (c *refCache) Occupancy() int {
	n := 0
	for _, ways := range c.sets {
		n += len(ways)
	}
	return n
}

// The regions simulated addresses come from.  mem and mee import this
// package, so their constants (mem.PlainBase, mem.EnclaveBase, the MEE's
// MAC and counter regions with the tree level folded in at bit 32, and
// mee.nodeCacheConfig) are restated.
var (
	llcBases     = []uint64{0, 0x0000_1000_0000, 0x7000_0000_0000}
	meeBases     = []uint64{0, 0xF0 << 40, 0xF1 << 40, 0xF1<<40 | 3<<32}
	meeNodeCache = Config{SizeBytes: 48 * 64, LineSize: 64, Ways: 3}
)

// Operations of a differential trace.
const (
	opLoad = iota
	opStore
	opFlush
	opFlushRange
	opFlushAll
	opProbe
	opOccupancy
	opSweepLoad
	opSweepStore
	numOps
)

// differ applies one operation to the cache and to the reference model and
// reports the first observable that disagrees, the access and miss counts
// included.  A sweep covers size lines.
func differ[W Word](c *Cache[W], ref *refCache, op int, addr, size uint64) error {
	switch op {
	case opLoad, opStore:
		hit, v := c.Access(addr, op == opStore)
		rhit, rv := ref.Access(addr, op == opStore)
		if hit != rhit || v != rv {
			return fmt.Errorf("Access(%#x, %v) = (%v, %+v), reference (%v, %+v)", addr, op == opStore, hit, v, rhit, rv)
		}
	case opFlush:
		p, d := c.Flush(addr)
		rp, rd := ref.Flush(addr)
		if p != rp || d != rd {
			return fmt.Errorf("Flush(%#x) = (%v, %v), reference (%v, %v)", addr, p, d, rp, rd)
		}
	case opFlushRange:
		if got, want := c.FlushRange(addr, size), ref.FlushRange(addr, size); got != want {
			return fmt.Errorf("FlushRange(%#x, %d) = %d, reference %d", addr, size, got, want)
		}
	case opFlushAll:
		if got, want := c.FlushAll(), ref.FlushAll(); got != want {
			return fmt.Errorf("FlushAll = %d, reference %d", got, want)
		}
	case opProbe:
		if got, want := c.Probe(addr), ref.Probe(addr); got != want {
			return fmt.Errorf("Probe(%#x) = %v, reference %v", addr, got, want)
		}
	case opOccupancy:
		if got, want := c.Occupancy(), ref.Occupancy(); got != want {
			return fmt.Errorf("Occupancy = %d, reference %d", got, want)
		}
	case opSweepLoad, opSweepStore:
		hits, missed, v := c.Sweep(addr, int(size), op == opSweepStore)
		rhits, rmissed, rv := ref.Sweep(addr, int(size), op == opSweepStore)
		if hits != rhits || missed != rmissed || v != rv {
			return fmt.Errorf("Sweep(%#x, %d, %v) = (%d, %v, %+v), reference (%d, %v, %+v)",
				addr, size, op == opSweepStore, hits, missed, v, rhits, rmissed, rv)
		}
	}
	if acc, miss := c.Stats(); acc != ref.accesses || miss != ref.misses {
		return fmt.Errorf("after op %d at %#x: Stats = (%d, %d), reference (%d, %d)", op, addr, acc, miss, ref.accesses, ref.misses)
	}
	return nil
}

// replayTrace drives the cache and the reference model with one seeded
// operation trace and requires every observable to agree step by step.
func replayTrace[W Word](t *testing.T, cfg Config, bases []uint64, span, steps int, seed uint64) {
	r := sim.NewRNG(seed)
	c, ref := New[W](cfg), newRef(cfg)
	var addr uint64
	for i := 0; i < steps; i++ {
		// Half the operations walk forward a line from the last address,
		// as the streaming sweeps do (so a sweep often revisits lines an
		// earlier one left at the MRU way); the rest jump, to any region.
		if addr += uint64(cfg.LineSize); r.Bool(0.5) {
			addr = bases[r.Intn(len(bases))] + uint64(r.Intn(span))
		}
		op, size := opLoad, uint64(0)
		switch p := r.Intn(1000); {
		case p < 760:
			if r.Bool(0.4) {
				op = opStore
			}
		case p < 860: // a streaming run, often long enough to wrap the set index
			op, size = opSweepLoad, uint64(r.Intn(64))
			if r.Bool(0.4) {
				op = opSweepStore
			}
		case p < 920:
			op = opFlush
		case p < 950:
			op, size = opFlushRange, uint64(r.Intn(8*cfg.LineSize))
		case p < 996:
			op = opProbe
		case p < 999:
			op = opOccupancy // walks every used set: kept rare
		default:
			if i%50 != 0 { // a full flush every thousand steps would keep the cache empty
				continue
			}
			op = opFlushAll
		}
		if err := differ(c, ref, op, addr, size); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	acc, miss := c.Stats()
	if acc != ref.accesses || miss != ref.misses || c.Occupancy() != ref.Occupancy() {
		t.Fatalf("final (accesses, misses, occupancy) = (%d, %d, %d), reference (%d, %d, %d)",
			acc, miss, c.Occupancy(), ref.accesses, ref.misses, ref.Occupancy())
	}
}

// TestFlatCacheMatchesReference replays seeded traces over the two
// geometries in use, each at its own way width and over the regions its
// addresses come from, and over a toy.  Spans are a few times the
// capacity, so sets fill, evict and refill.
func TestFlatCacheMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name   string
		replay func(t *testing.T, seed uint64)
	}{
		{"llc", func(t *testing.T, seed uint64) {
			replayTrace[uint32](t, LLCConfig, llcBases, 2*LLCConfig.SizeBytes, 400_000, seed)
		}},
		{"mee-node-cache", func(t *testing.T, seed uint64) {
			replayTrace[uint64](t, meeNodeCache, meeBases, 8*meeNodeCache.SizeBytes, 50_000, seed)
		}},
		{"2-way-toy", func(t *testing.T, seed uint64) {
			replayTrace[uint32](t, Config{SizeBytes: 512, LineSize: 64, Ways: 2}, []uint64{0}, 4096, 50_000, seed)
		}},
	} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) { g.replay(t, seed) })
		}
	}
}

// FuzzCacheMatchesReference decodes its input as a trace of 4-byte
// operations — opcode, region, a set-stride multiple (lines that collide
// in one set) and an offset over the next sixteen lines — and replays it
// on both geometries in use, each emptied first.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{opStore, 1, 0, 0, opStore, 1, 1, 0, opLoad, 1, 0, 9, opFlush, 1, 1, 0, opOccupancy, 0, 0, 0})
	f.Add([]byte{opStore, 2, 3, 200, opFlushRange, 2, 3, 7, opProbe, 2, 3, 200, opFlushAll, 0, 0, 0})
	var ways []byte // seventeen colliding stores overflow a 16-way set
	for i := byte(0); i <= 16; i++ {
		ways = append(ways, opStore, 2, i, 0)
	}
	f.Add(ways)
	f.Add([]byte{opStore, 1, 0, 0, opStore, 1, 0, 4, opSweepStore, 1, 0, 16, opSweepLoad, 1, 0, 200, opOccupancy, 0, 0, 0})
	llc, llcRef := New[uint32](LLCConfig), newRef(LLCConfig)
	node, nodeRef := New[uint64](meeNodeCache), newRef(meeNodeCache)
	f.Fuzz(func(t *testing.T, trace []byte) {
		for _, empty := range []error{differ(llc, llcRef, opFlushAll, 0, 0), differ(node, nodeRef, opFlushAll, 0, 0)} {
			if empty != nil {
				t.Fatal(empty)
			}
		}
		for ; len(trace) >= 4; trace = trace[4:] {
			op, region := int(trace[0])%numOps, int(trace[1])
			stride, off, size := uint64(trace[2]), uint64(trace[3])*4, uint64(trace[3])*2
			if err := differ(llc, llcRef, op, llcBases[region%len(llcBases)]+stride*uint64(LLCConfig.SizeBytes/LLCConfig.Ways)+off, size); err != nil {
				t.Fatalf("llc: %v", err)
			}
			if err := differ(node, nodeRef, op, meeBases[region%len(meeBases)]+stride*uint64(meeNodeCache.SizeBytes/meeNodeCache.Ways)+off, size); err != nil {
				t.Fatalf("mee node cache: %v", err)
			}
		}
	})
}

type step struct {
	op         int
	addr, size uint64
}

// sweepCase applies setup, then one Sweep, to a cache and to the reference,
// and returns the sweep's outcome once both agree on it and on everything
// after: the occupancy, and the presence and dirtiness of every line the
// setup or the sweep touched.
func sweepCase[W Word](t *testing.T, cfg Config, setup []step, addr uint64, n int, write bool) (hits int, missed bool, victim Victim) {
	t.Helper()
	c, ref := New[W](cfg), newRef(cfg)
	for i, st := range setup {
		if err := differ(c, ref, st.op, st.addr, st.size); err != nil {
			t.Fatalf("setup step %d: %v", i, err)
		}
	}
	hits, missed, victim = c.Sweep(addr, n, write)
	if rh, rm, rv := ref.Sweep(addr, n, write); hits != rh || missed != rm || victim != rv {
		t.Fatalf("Sweep(%#x, %d, %v) = (%d, %v, %+v), reference (%d, %v, %+v)", addr, n, write, hits, missed, victim, rh, rm, rv)
	}
	after := []step{{op: opOccupancy}}
	for i := 0; i <= n; i++ {
		after = append(after, step{opFlush, addr + uint64(i*cfg.LineSize), 0})
	}
	for _, st := range setup {
		after = append(after, step{opFlush, st.addr, 0})
	}
	for _, st := range append(after, step{op: opOccupancy}) {
		if err := differ(c, ref, st.op, st.addr, st.size); err != nil {
			t.Fatalf("after the sweep: %v", err)
		}
	}
	return hits, missed, victim
}

// lines returns one op per line over n lines from addr.
func lines(op int, addr uint64, n int) []step {
	var out []step
	for i := 0; i < n; i++ {
		out = append(out, step{op, addr + uint64(i*64), 0})
	}
	return out
}

// TestSweepCases drives Sweep through each outcome a streaming run meets,
// against the reference, and checks that the case really arose.
func TestSweepCases(t *testing.T) {
	const base = 0x0000_1000_0000
	llcStride := uint64(LLCConfig.SizeBytes / LLCConfig.Ways) // lines that collide in one LLC set
	nodeStride := uint64(meeNodeCache.SizeBytes / meeNodeCache.Ways)
	oneWay := Config{SizeBytes: 256, LineSize: 64, Ways: 1}
	fullSet := lines(opStore, base, 1) // sixteen lines of set 0, the oldest dirty
	for k := uint64(1); k < 16; k++ {
		fullSet = append(fullSet, step{opLoad, base + k*llcStride, 0})
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (int, bool, Victim)
		want func(hits int, missed bool, v Victim) bool
	}{
		{"miss-mid-run", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, LLCConfig, lines(opStore, base, 4), base, 8, false)
		}, func(h int, m bool, v Victim) bool { return h == 4 && m && !v.Valid }},
		{"dirty-victim", func(t *testing.T) (int, bool, Victim) {
			warm := append(lines(opLoad, base+16*llcStride-64, 1), fullSet...)
			return sweepCase[uint32](t, LLCConfig, warm, base+16*llcStride-64, 4, false)
		}, func(h int, m bool, v Victim) bool { return h == 1 && m && v.Valid && v.Dirty && v.Addr == base }},
		{"write-over-clean-mru", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, LLCConfig, lines(opLoad, base, 8), base, 8, true)
		}, func(h int, m bool, v Victim) bool { return h == 8 && !m }},
		{"hit-below-mru", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, LLCConfig, fullSet, base, 2, true)
		}, func(h int, m bool, v Victim) bool { return h == 1 && m && !v.Valid }},
		{"wrap-past-last-set", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, LLCConfig, lines(opLoad, base+llcStride-128, 4), base+llcStride-128, 6, false)
		}, func(h int, m bool, v Victim) bool { return h == 4 && m }},
		{"one-way", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, oneWay, lines(opStore, 0, 4), 128, 4, false)
		}, func(h int, m bool, v Victim) bool { return h == 2 && m && v.Valid && v.Dirty && v.Addr == 0 }},
		{"mee-3-way", func(t *testing.T) (int, bool, Victim) {
			nb := meeBases[1]
			setup := []step{{opStore, nb, 0}, {opLoad, nb + nodeStride, 0}, {opLoad, nb + 2*nodeStride, 0}}
			return sweepCase[uint64](t, meeNodeCache, setup, nb, 3, false)
		}, func(h int, m bool, v Victim) bool { return h == 1 && m && !v.Valid }},
		{"empty-run", func(t *testing.T) (int, bool, Victim) {
			return sweepCase[uint32](t, LLCConfig, lines(opLoad, base, 1), base, 0, true)
		}, func(h int, m bool, v Victim) bool { return h == 0 && !m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if h, m, v := tc.run(t); !tc.want(h, m, v) {
				t.Fatalf("Sweep = (%d, %v, %+v): not the case named", h, m, v)
			}
		})
	}
}

// TestAddressBeyondTagPanics pins what happens to an address a way cannot
// tag: Access panics, and neither it nor Probe nor Flush ever takes it for
// the line its truncated tag would name.
func TestAddressBeyondTagPanics(t *testing.T) {
	c := New[uint32](LLCConfig) // 6 line bits + 13 set bits: tags start at bit 19
	const resident = 0x1040
	c.Access(resident, true)
	for _, addr := range []uint64{
		resident | 1<<(19+31), // truncates to the resident line's tag
		resident | 1<<(19+32),
		(1<<31 - 1) << 19, // tag+1 would spill into the 32nd bit
		^uint64(0),
	} {
		if c.Probe(addr) {
			t.Errorf("Probe(%#x) found a line that cannot be held", addr)
		}
		if present, _ := c.Flush(addr); present {
			t.Errorf("Flush(%#x) removed a line that cannot be held", addr)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%#x) did not panic", addr)
				}
			}()
			c.Access(addr, false)
		}()
	}
	if !c.Probe(resident) || c.Occupancy() != 1 {
		t.Fatal("an untaggable address disturbed a resident line")
	}
	// Sweep panics where Access does, with Access's message, having
	// counted what Access counts — also when its run reaches the address
	// from a line that fits.
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	const lastFit = ((1<<31-2)<<13 | 8191) << 6 // last set of the last tag that fits
	a, s := New[uint32](LLCConfig), New[uint32](LLCConfig)
	a.Access(lastFit, false) // a run from here hits once, then reaches a tag that does not fit
	s.Access(lastFit, false)
	for _, addr := range []uint64{resident | 1<<(19+32), lastFit} {
		want := panicOf(func() { a.Access(addr, true); a.Access(addr+64, true) })
		if got := panicOf(func() { s.Sweep(addr, 2, true) }); got == nil || got != want {
			t.Errorf("Sweep(%#x, 2) panicked with %v, Access with %v", addr, got, want)
		}
		if s.accesses != a.accesses || s.misses != a.misses {
			t.Errorf("Sweep(%#x, 2) counted (%d, %d), Access (%d, %d)", addr, s.accesses, s.misses, a.accesses, a.misses)
		}
	}
	// The same addresses fit a 64-bit way.
	if hit, _ := New[uint64](LLCConfig).Access(resident|1<<(19+32), false); hit {
		t.Fatal("first access of a wide address hit")
	}
}
