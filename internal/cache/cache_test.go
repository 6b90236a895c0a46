package cache

import (
	"testing"
	"testing/quick"

	"hotcalls/internal/sim"
)

func tiny() *Cache[uint32] {
	// 4 sets x 2 ways x 64-byte lines = 512 bytes.
	return New[uint32](Config{SizeBytes: 512, LineSize: 64, Ways: 2})
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("first access should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access should hit")
	}
	if hit, _ := c.Access(0x1038, false); !hit {
		t.Fatal("same-line access should hit")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Fatal("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Three lines mapping to the same set (set stride = 4 sets * 64 B).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false)
	// Touch a so b becomes LRU.
	c.Access(a, false)
	_, victim := c.Access(d, false)
	if !victim.Valid || victim.Addr != b {
		t.Fatalf("victim = %+v, want line %#x", victim, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("residency after eviction is wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := tiny()
	c.Access(0, true) // dirty
	c.Access(256, false)
	_, victim := c.Access(512, false)
	if !victim.Valid || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("victim = %+v, want dirty line 0", victim)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c := tiny()
	c.Access(0, false)
	c.Access(0, true) // hit, marks dirty
	if _, dirty := c.Flush(0); !dirty {
		t.Fatal("line should be dirty after store hit")
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0x80, true)
	present, dirty := c.Flush(0x80)
	if !present || !dirty {
		t.Fatalf("Flush = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Probe(0x80) {
		t.Fatal("line still resident after flush")
	}
	if present, _ := c.Flush(0x80); present {
		t.Fatal("double flush should report absent")
	}
}

func TestFlushRange(t *testing.T) {
	c := tiny()
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, true)
	}
	if n := c.FlushRange(0, 256); n != 4 {
		t.Fatalf("FlushRange wrote back %d dirty lines, want 4", n)
	}
	if c.Occupancy() != 0 {
		t.Fatalf("occupancy = %d after full flush", c.Occupancy())
	}
	if n := c.FlushRange(0, 0); n != 0 {
		t.Fatal("empty range should flush nothing")
	}
}

func TestFlushRangePartialLine(t *testing.T) {
	c := tiny()
	c.Access(64, false)
	// Range [100, 101) overlaps line 1 only.
	c.FlushRange(100, 1)
	if c.Probe(64) {
		t.Fatal("line overlapping range not flushed")
	}
}

func TestFlushAll(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	if n := c.FlushAll(); n != 2 {
		t.Fatalf("FlushAll dirty count = %d, want 2", n)
	}
	if c.Occupancy() != 0 {
		t.Fatal("cache not empty after FlushAll")
	}
}

func TestStats(t *testing.T) {
	c := tiny()
	c.Access(0, false)
	c.Access(0, false)
	c.Access(64, false)
	acc, miss := c.Stats()
	if acc != 3 || miss != 2 {
		t.Fatalf("stats = (%d, %d), want (3, 2)", acc, miss)
	}
}

func TestLLCGeometry(t *testing.T) {
	c := New[uint32](LLCConfig)
	// 8192 sets x 16 ways, observed from outside: lines one set-stride
	// apart collide, and the 17th of them displaces the first.
	const setStride = 8192 * 64
	for i := uint64(0); i < 16; i++ {
		if _, v := c.Access(i*setStride, false); v.Valid {
			t.Fatalf("way %d of an empty set displaced %+v", i, v)
		}
	}
	c.Access(setStride/2, false) // set 4096: must not disturb set 0
	if _, v := c.Access(16*setStride, false); !v.Valid || v.Addr != 0 {
		t.Fatalf("17th line of set 0 displaced %+v, want line 0", v)
	}
	if got := c.Occupancy(); got != 17 {
		t.Fatalf("occupancy = %d, want 17", got)
	}
	if c.LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x12345))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, LineSize: 64, Ways: 2},
		{SizeBytes: 512, LineSize: 0, Ways: 2},
		{SizeBytes: 512, LineSize: 64, Ways: 0},
		{SizeBytes: 500, LineSize: 64, Ways: 2},  // not power of two
		{SizeBytes: 128, LineSize: 64, Ways: 16}, // ways > lines
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New[uint32](cfg)
		}()
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c := tiny()
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(1<<14)), r.Bool(0.5))
		}
		return c.Occupancy() <= 8 // 4 sets x 2 ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMostRecentLineAlwaysResident(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c := tiny()
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(1 << 14))
			c.Access(addr, false)
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVictimNeverEqualsInserted(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c := tiny()
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(1 << 14))
			_, v := c.Access(addr, false)
			if v.Valid && v.Addr == c.LineAddr(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []bool {
		r := sim.NewRNG(99)
		c := New[uint32](Config{SizeBytes: 4096, LineSize: 64, Ways: 4})
		hits := make([]bool, 0, 1000)
		for i := 0; i < 1000; i++ {
			h, _ := c.Access(uint64(r.Intn(1<<13)), r.Bool(0.3))
			hits = append(hits, h)
		}
		return hits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at access %d", i)
		}
	}
}

func TestProbeDoesNotPerturbLRU(t *testing.T) {
	c := tiny()
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false) // LRU order: b (MRU), a (LRU)
	// Probing a must NOT refresh it.
	if !c.Probe(a) {
		t.Fatal("probe miss")
	}
	_, victim := c.Access(d, false)
	if victim.Addr != a {
		t.Fatalf("victim = %#x, want %#x: Probe refreshed LRU state", victim.Addr, a)
	}
}

func TestNonPowerOfTwoWays(t *testing.T) {
	// 16 sets x 3 ways, the MEE node-cache geometry.
	c := New[uint32](Config{SizeBytes: 48 * 64, LineSize: 64, Ways: 3})
	set0 := func(i uint64) uint64 { return i * 16 * 64 } // same set, different tags
	c.Access(set0(0), false)
	c.Access(set0(1), false)
	c.Access(set0(2), false)
	_, victim := c.Access(set0(3), false)
	if !victim.Valid || victim.Addr != set0(0) {
		t.Fatalf("3-way set should evict LRU: victim = %+v", victim)
	}
}

// BenchmarkAccess prices the three outcomes of an LLC access on the host:
// a hit at the MRU way (a line touched twice in a row), a hit at the LRU
// way (the whole set is shifted) and a miss that displaces a dirty line.
// `make bench-sim` runs it beside the simulated-request benchmarks.
func BenchmarkAccess(b *testing.B) {
	const setStride = 8192 * 64 // consecutive lines of one LLC set
	b.Run("mru-hit", func(b *testing.B) {
		c := New[uint32](LLCConfig)
		c.Access(0x1000, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000, false)
		}
	})
	b.Run("deep-hit", func(b *testing.B) {
		c := New[uint32](LLCConfig)
		for w := uint64(0); w < 16; w++ {
			c.Access(w*setStride, false)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%16)*setStride, false) // always the LRU way
		}
	})
	b.Run("miss-dirty-victim", func(b *testing.B) {
		c := New[uint32](LLCConfig)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%64)*setStride, true) // 64 lines through 16 ways
		}
	})
}

// BenchmarkSweep prices one 64-line run (a page of a streaming sweep) by
// outcome: every line clean at the MRU way and read, the same run stored
// to, and a run that misses throughout (each miss ends a Sweep, so the run
// takes 64 of them).  `make bench-sim` runs it beside BenchmarkAccess.
func BenchmarkSweep(b *testing.B) {
	const run = 64
	for _, bc := range []struct {
		name  string
		write bool
	}{{"mru-clean-read", false}, {"mru-write", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New[uint32](LLCConfig)
			c.Sweep(0x1000, run, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Sweep(0x1000, run, bc.write)
			}
		})
	}
	b.Run("all-miss", func(b *testing.B) {
		c := New[uint32](LLCConfig)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := uint64(i%2048) * run * 64 * 2 // every other run of 16 MB: 32 lines per 16-way set, cycled in order
			for n := 0; n < run; {
				h, _, _ := c.Sweep(addr+uint64(n)*64, run-n, false)
				n += h + 1
			}
		}
	})
}
