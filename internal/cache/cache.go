// Package cache models a set-associative write-back cache with true-LRU
// replacement.  The benchmark harness instantiates it twice: once as the
// 8 MB last-level cache of the paper's Core i7-6700K testbed, and once (with
// a much smaller geometry) as the Memory Encryption Engine's internal cache
// of integrity-tree nodes.
//
// The model tracks which line addresses are resident and dirty; it does not
// store data.  Cycle costs are charged by the layers above (internal/mem),
// which combine hit/miss outcomes with the calibrated latency model.
package cache

import (
	"math"
	"math/bits"
)

// Config describes a cache geometry.  All fields must be powers of two.
type Config struct {
	SizeBytes int // total capacity
	LineSize  int // bytes per line
	Ways      int // associativity
}

// LLCConfig is the geometry of the testbed's last-level cache: 8 MB,
// 64-byte lines, 16-way (Core i7-6700K).
var LLCConfig = Config{SizeBytes: 8 << 20, LineSize: 64, Ways: 16}

// Victim describes a line displaced by an insertion.
type Victim struct {
	Addr  uint64 // line-aligned byte address of the displaced line
	Dirty bool   // displaced line held modified data (write-back needed)
	Valid bool   // false when the insertion filled an empty way
}

// Cache is a set-associative write-back cache.  It is not safe for
// concurrent use.
//
// All sets live in one flat array: set i owns words[i*ways : (i+1)*ways],
// of which the first fill[i] are its resident lines in LRU order, front =
// most recent.  A word packs the line number with the dirty flag in bit 0,
// so a whole LLC is two allocations and a lookup scans one contiguous run.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	words     []uint64 // line<<1 | dirty
	fill      []uint16 // resident lines per set
	accesses  uint64
	misses    uint64
}

const dirtyBit = 1

// New returns a cache with the given geometry.  It panics if the geometry
// is not a power-of-two design or the associativity exceeds the line count.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineSize <= 0 || cfg.Ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := cfg.SizeBytes / cfg.LineSize
	numSets := lines / cfg.Ways
	if numSets == 0 {
		panic("cache: associativity exceeds line count")
	}
	if numSets*cfg.Ways*cfg.LineSize != cfg.SizeBytes {
		panic("cache: size not divisible into sets x ways x lines")
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 || numSets&(numSets-1) != 0 {
		panic("cache: line size and set count must be powers of two")
	}
	if cfg.Ways > math.MaxUint16 {
		panic("cache: associativity exceeds the per-set fill counter")
	}
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(numSets - 1),
		ways:      cfg.Ways,
		words:     make([]uint64, numSets*cfg.Ways),
		fill:      make([]uint16, numSets),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return (addr >> c.lineShift) << c.lineShift
}

func (c *Cache) lineOf(addr uint64) uint64 { return addr >> c.lineShift }

// resident returns the set index of a line and that set's resident words.
func (c *Cache) resident(line uint64) (set int, ws []uint64) {
	set = int(line & c.setMask)
	base := set * c.ways
	return set, c.words[base : base+int(c.fill[set])]
}

// Probe reports whether addr's line is resident, without touching
// replacement state.
func (c *Cache) Probe(addr uint64) bool {
	line := c.lineOf(addr)
	_, ws := c.resident(line)
	for _, w := range ws {
		if w>>1 == line {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) to addr.
// It returns whether the access hit, and the victim displaced if the
// resulting fill evicted a valid line.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	c.accesses++
	line := c.lineOf(addr)
	set, ws := c.resident(line)
	for i, w := range ws {
		if w>>1 == line {
			// Hit: move to MRU position.
			if write {
				w |= dirtyBit
			}
			copy(ws[1:i+1], ws[:i])
			ws[0] = w
			return true, Victim{}
		}
	}
	c.misses++
	// Miss: fill, evicting LRU if the set is full.
	w := line << 1
	if write {
		w |= dirtyBit
	}
	if len(ws) < c.ways {
		ws = ws[:len(ws)+1]
		c.fill[set]++
		copy(ws[1:], ws)
		ws[0] = w
		return false, Victim{}
	}
	lru := ws[len(ws)-1]
	copy(ws[1:], ws)
	ws[0] = w
	return false, Victim{
		Addr:  lru >> 1 << c.lineShift,
		Dirty: lru&dirtyBit != 0,
		Valid: true,
	}
}

// Flush removes addr's line (the clflush instruction).  It reports whether
// the line was present and whether it was dirty (requiring write-back).
func (c *Cache) Flush(addr uint64) (present, dirty bool) {
	line := c.lineOf(addr)
	set, ws := c.resident(line)
	for i, w := range ws {
		if w>>1 == line {
			copy(ws[i:], ws[i+1:])
			c.fill[set]--
			return true, w&dirtyBit != 0
		}
	}
	return false, false
}

// FlushRange flushes every line overlapping [addr, addr+size) and returns
// the number of dirty lines written back.
func (c *Cache) FlushRange(addr, size uint64) (dirtyLines int) {
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

// FlushAll empties the cache (the cold-cache experiments of Figure 2 flush
// the entire 8 MB LLC before every run).  It returns the number of dirty
// lines that needed write-back.
func (c *Cache) FlushAll() (dirtyLines int) {
	for set, n := range c.fill {
		for _, w := range c.words[set*c.ways : set*c.ways+int(n)] {
			if w&dirtyBit != 0 {
				dirtyLines++
			}
		}
		c.fill[set] = 0
	}
	return dirtyLines
}

// Occupancy returns the number of resident lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, f := range c.fill {
		n += int(f)
	}
	return n
}

// Stats returns cumulative access and miss counts.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }
