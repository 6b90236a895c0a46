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
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.  The line size and the set count
// (SizeBytes / LineSize / Ways) must be powers of two; the associativity
// need not be (the MEE's node cache has 3 ways).
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

// Word is the state of one way.  The width bounds the address space a
// cache can hold (see Cache): the LLC's uint32 ways make its MRU array 32 KB
// and each set's other fifteen ways 60 bytes; the MEE node cache, whose
// synthetic node addresses are 48 bits wide over only 16 sets, takes uint64.
type Word interface{ uint32 | uint64 }

// Cache is a set-associative write-back cache.  It is not safe for
// concurrent use.
//
// A set is split across two flat arrays: mru[i] is set i's most recent way,
// and rest[i*(ways-1) : (i+1)*(ways-1)] holds its other ways in LRU order,
// front = most recent.  Nine in ten simulated accesses hit the MRU way and
// change nothing, so they read one word of a dense array instead of a whole
// set.  A word is (tag+1)<<1 | dirty, where the tag is the line number
// above the set-index bits — the set supplies the rest, so a victim's
// address is rebuilt from the two.  Empty ways hold zero (fresh arrays are
// an empty cache) and always trail the resident ones, so there is no
// per-set count.  An address whose tag does not fit the word cannot be
// held: Access panics on it rather than alias another line.
//
// used has one bit per set, raised when the set takes its first line: it
// is written on a fill of an empty way only, and lets FlushAll — which the
// cold-cache experiments run before every measurement — visit the few sets
// a run touched instead of the whole array.
type Cache[W Word] struct {
	cfg       Config
	lineShift uint
	setBits   uint
	setMask   uint64
	ways      int
	maxTag    uint64 // first tag that does not fit the word (a field: as a constant of W it measured 4 ns slower)
	mru       []W
	rest      []W
	used      []uint64
	accesses  uint64
	misses    uint64
}

const dirtyBit = 1

// New returns a cache with the given geometry and way width.  It panics if
// the geometry is not a power-of-two design or the associativity exceeds
// the line count.
func New[W Word](cfg Config) *Cache[W] {
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
	return &Cache[W]{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setBits:   uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
		ways:      cfg.Ways,
		maxTag:    uint64(^W(0) >> 1),
		mru:       make([]W, numSets),
		rest:      make([]W, numSets*(cfg.Ways-1)),
		used:      make([]uint64, (numSets+63)/64),
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache[W]) LineAddr(addr uint64) uint64 {
	return (addr >> c.lineShift) << c.lineShift
}

// locate splits addr into its set and the clean word its line would be
// held as; ok is false when the tag does not fit the word, so the line
// cannot be resident.  (The shift counts are below 64 by construction;
// masking them says so to the compiler, which otherwise guards every
// variable shift.)
func (c *Cache[W]) locate(addr uint64) (set int, key W, ok bool) {
	line := addr >> (c.lineShift & 63)
	tag := line >> (c.setBits & 63)
	return int(line & c.setMask), W(tag+1) << 1, tag < c.maxTag
}

// others returns set's ways after the MRU one, most recent first.
func (c *Cache[W]) others(set int) []W {
	n := c.ways - 1
	return c.rest[set*n : (set+1)*n]
}

// Probe reports whether addr's line is resident, without touching
// replacement state.
func (c *Cache[W]) Probe(addr uint64) bool {
	set, key, ok := c.locate(addr)
	if !ok {
		return false
	}
	if c.mru[set]&^dirtyBit == key {
		return true
	}
	for _, w := range c.others(set) {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) to addr.
// It returns whether the access hit, and the victim displaced if the
// resulting fill evicted a valid line.
func (c *Cache[W]) Access(addr uint64, write bool) (hit bool, victim Victim) {
	c.accesses++
	set, key, ok := c.locate(addr)
	if !ok {
		panic(fmt.Sprintf("cache: the tag of address %#x does not fit a %T way", addr, W(0)))
	}
	var dirty W
	if write {
		dirty = dirtyBit
	}
	m := c.mru[set]
	if m&^dirtyBit == key {
		c.mru[set] = m | dirty
		return true, Victim{}
	}
	ws := c.others(set)
	for i, w := range ws {
		if w&^dirtyBit == key {
			// Hit below the MRU way: the ways above it move down one.
			copy(ws[1:i+1], ws[:i])
			ws[0], c.mru[set] = m, w|dirty
			return true, Victim{}
		}
	}
	c.misses++
	// Miss: fill at the front; the last way falls out, and it is the LRU
	// line exactly when the set was full.
	lru := m
	if len(ws) > 0 {
		lru = ws[len(ws)-1]
		copy(ws[1:], ws)
		ws[0] = m
	}
	c.mru[set] = key | dirty
	if lru == 0 {
		c.used[set/64] |= 1 << (set % 64)
		return false, Victim{}
	}
	return false, Victim{
		Addr:  (uint64(lru>>1-1)<<(c.setBits&63) | uint64(set)) << (c.lineShift & 63),
		Dirty: lru&dirtyBit != 0,
		Valid: true,
	}
}

// Sweep performs up to n accesses to the consecutive lines from addr's
// and stops after the first miss: hits counts the lines that hit before
// it, and victim is what the miss displaced.  The outcome of every line is
// Access's.  Consecutive lines fall in consecutive sets under one tag until
// the set index wraps, so a run of MRU hits is a run of equal words in the
// MRU array; any other line goes through Access.
func (c *Cache[W]) Sweep(addr uint64, n int, write bool) (hits int, missed bool, victim Victim) {
	for hits < n {
		set, key, ok := c.locate(addr)
		if !ok {
			c.Access(addr, write) // panics
		}
		run := c.mru[set:min(len(c.mru), set+n-hits)]
		i := 0
		if write {
			for i < len(run) && run[i]&^dirtyBit == key {
				run[i] = key | dirtyBit
				i++
			}
		} else {
			for i < len(run) && run[i]&^dirtyBit == key {
				i++
			}
		}
		c.accesses += uint64(i)
		hits += i
		addr += uint64(i) << (c.lineShift & 63)
		if i == len(run) {
			continue
		}
		hit, v := c.Access(addr, write)
		if !hit {
			return hits, true, v
		}
		hits++
		addr += uint64(1) << (c.lineShift & 63)
	}
	return hits, false, Victim{}
}

// Flush removes addr's line (the clflush instruction).  It reports whether
// the line was present and whether it was dirty (requiring write-back).
func (c *Cache[W]) Flush(addr uint64) (present, dirty bool) {
	set, key, ok := c.locate(addr)
	if !ok {
		return false, false
	}
	m, ws := c.mru[set], c.others(set)
	i := 0
	if m&^dirtyBit == key {
		if len(ws) == 0 {
			c.mru[set] = 0
			return true, m&dirtyBit != 0
		}
		c.mru[set] = ws[0] // the next way moves up, then leaves the rest
	} else {
		for i < len(ws) && ws[i]&^dirtyBit != key {
			i++
		}
		if i == len(ws) {
			return false, false
		}
		m = ws[i]
	}
	copy(ws[i:], ws[i+1:])
	ws[len(ws)-1] = 0
	return true, m&dirtyBit != 0
}

// FlushRange flushes every line overlapping [addr, addr+size) and returns
// the number of dirty lines written back.
func (c *Cache[W]) FlushRange(addr, size uint64) (dirtyLines int) {
	if size == 0 {
		return 0
	}
	first := addr >> c.lineShift
	last := (addr + size - 1) >> c.lineShift
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
func (c *Cache[W]) FlushAll() (dirtyLines int) {
	c.usedSets(func(set int) {
		dirtyLines += int(c.mru[set] & dirtyBit)
		c.mru[set] = 0
		ws := c.others(set)
		for _, w := range ws {
			dirtyLines += int(w & dirtyBit)
		}
		clear(ws)
	})
	clear(c.used)
	return dirtyLines
}

// Occupancy returns the number of resident lines.
func (c *Cache[W]) Occupancy() (lines int) {
	c.usedSets(func(set int) {
		if c.mru[set] != 0 {
			lines++
		}
		for _, w := range c.others(set) {
			if w != 0 {
				lines++
			}
		}
	})
	return lines
}

// usedSets visits every set that has held a line since the last FlushAll.
func (c *Cache[W]) usedSets(visit func(set int)) {
	for i, mask := range c.used {
		for ; mask != 0; mask &= mask - 1 {
			visit(i*64 + bits.TrailingZeros64(mask))
		}
	}
}

// Stats returns cumulative access and miss counts.
func (c *Cache[W]) Stats() (accesses, misses uint64) { return c.accesses, c.misses }
