package cache

import (
	"fmt"
	"testing"

	"hotcalls/internal/sim"
)

// refCache is the slice-of-slices true-LRU model the flat Cache replaced,
// copied as it stood, kept as the oracle: every simulated statistic in the
// repo was calibrated against its hit/miss/victim sequence.
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
	flat := New(cfg) // validates the geometry and derives shift and mask
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

// TestFlatCacheMatchesReference drives the flat cache and the reference
// model with the same seeded operation traces and requires every
// observable to agree step by step.
func TestFlatCacheMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name  string
		cfg   Config
		span  int // address span the trace draws from
		steps int
	}{
		// Spans a few times the capacity, so sets fill, evict and refill.
		{"llc", LLCConfig, 4 * LLCConfig.SizeBytes, 400_000},
		// The MEE's metadata cache (mee.nodeCacheConfig; mee imports this
		// package, so the geometry is restated): 16 sets x 3 ways.
		{"mee-node-cache", Config{SizeBytes: 48 * 64, LineSize: 64, Ways: 3}, 16 * 48 * 64, 50_000},
		{"2-way-toy", Config{SizeBytes: 512, LineSize: 64, Ways: 2}, 4096, 50_000},
	} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				r := sim.NewRNG(seed)
				c, ref := New(g.cfg), newRef(g.cfg)
				var addr uint64
				for i := 0; i < g.steps; i++ {
					// Half the operations walk forward a line from the
					// last address, as the streaming sweeps do; the rest
					// jump.
					if addr += uint64(g.cfg.LineSize); r.Bool(0.5) {
						addr = uint64(r.Intn(g.span))
					}
					switch op := r.Intn(100); {
					case op < 90:
						write := r.Bool(0.4)
						hit, v := c.Access(addr, write)
						rhit, rv := ref.Access(addr, write)
						if hit != rhit || v != rv {
							t.Fatalf("step %d: Access(%#x, %v) = (%v, %+v), reference (%v, %+v)", i, addr, write, hit, v, rhit, rv)
						}
					case op < 96:
						p, d := c.Flush(addr)
						rp, rd := ref.Flush(addr)
						if p != rp || d != rd {
							t.Fatalf("step %d: Flush(%#x) = (%v, %v), reference (%v, %v)", i, addr, p, d, rp, rd)
						}
					case op < 99:
						size := uint64(r.Intn(8 * g.cfg.LineSize))
						if got, want := c.FlushRange(addr, size), ref.FlushRange(addr, size); got != want {
							t.Fatalf("step %d: FlushRange(%#x, %d) = %d, reference %d", i, addr, size, got, want)
						}
					default:
						if i%50 != 0 { // a full flush every step would keep the cache empty
							continue
						}
						if got, want := c.FlushAll(), ref.FlushAll(); got != want {
							t.Fatalf("step %d: FlushAll = %d, reference %d", i, got, want)
						}
					}
					if i%1024 == 0 {
						if got, want := c.Occupancy(), ref.Occupancy(); got != want {
							t.Fatalf("step %d: Occupancy = %d, reference %d", i, got, want)
						}
						if probe := uint64(r.Intn(g.span)); c.Probe(probe) != ref.Probe(probe) {
							t.Fatalf("step %d: Probe(%#x) disagrees with the reference", i, probe)
						}
					}
				}
				acc, miss := c.Stats()
				if acc != ref.accesses || miss != ref.misses || c.Occupancy() != ref.Occupancy() {
					t.Fatalf("final (accesses, misses, occupancy) = (%d, %d, %d), reference (%d, %d, %d)",
						acc, miss, c.Occupancy(), ref.accesses, ref.misses, ref.Occupancy())
				}
			})
		}
	}
}
