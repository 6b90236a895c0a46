package mem

import (
	"testing"

	"hotcalls/internal/sim"
)

// medianOf runs op under the paper's measurement methodology with a
// per-run setup step (not timed) and returns the median latency.
func medianOf(t *testing.T, runs int, setup func(s *System), op func(s *System, clk *sim.Clock)) float64 {
	t.Helper()
	rng := sim.NewRNG(1234)
	s := New(rng)
	res := sim.Measure(rng, runs, func() uint64 {
		setup(s)
		var clk sim.Clock
		op(s, &clk)
		return clk.Now()
	})
	return res.Sample.Median()
}

const (
	plainBuf   = PlainBase
	enclaveBuf = EnclaveBase
)

func within(t *testing.T, name string, got, want, tolerance float64) {
	t.Helper()
	if got < want*(1-tolerance) || got > want*(1+tolerance) {
		t.Errorf("%s = %.0f, want %.0f +/- %.0f%%", name, got, want, tolerance*100)
	}
}

// Table 1 row 7: consecutively reading a 2 KB buffer in chunks of 64 bits,
// evicted from LLC before each measurement: 1,124 encrypted / 727 plain.
func TestTable1Row7ConsecutiveRead(t *testing.T) {
	plain := medianOf(t, 3000,
		func(s *System) { s.EvictRange(plainBuf, 2048) },
		func(s *System, clk *sim.Clock) {
			s.StreamRead(clk, plainBuf, 2048)
			s.MFence(clk)
		})
	within(t, "plain 2KB read", plain, 727, 0.05)

	enc := medianOf(t, 3000,
		func(s *System) { s.EvictRange(enclaveBuf, 2048) },
		func(s *System, clk *sim.Clock) {
			s.StreamRead(clk, enclaveBuf, 2048)
			s.MFence(clk)
		})
	within(t, "encrypted 2KB read", enc, 1124, 0.08)
}

// Table 1 row 8: consecutively writing a 2 KB buffer, completed with
// clflush + mfence: 6,875 encrypted / 6,458 plain.
func TestTable1Row8ConsecutiveWrite(t *testing.T) {
	plain := medianOf(t, 2000,
		func(s *System) { s.EvictRange(plainBuf, 2048) },
		func(s *System, clk *sim.Clock) {
			s.StreamWrite(clk, plainBuf, 2048)
			s.FlushRange(clk, plainBuf, 2048)
			s.MFence(clk)
		})
	within(t, "plain 2KB write", plain, 6458, 0.05)

	enc := medianOf(t, 2000,
		func(s *System) { s.EvictRange(enclaveBuf, 2048) },
		func(s *System, clk *sim.Clock) {
			s.StreamWrite(clk, enclaveBuf, 2048)
			s.FlushRange(clk, enclaveBuf, 2048)
			s.MFence(clk)
		})
	within(t, "encrypted 2KB write", enc, 6875, 0.05)
}

// Table 1 row 9: single cache-load miss: 400 encrypted / 308 plain.
func TestTable1Row9CacheLoadMiss(t *testing.T) {
	plain := medianOf(t, 5000,
		func(s *System) { s.EvictRange(plainBuf, 64) },
		func(s *System, clk *sim.Clock) { s.Load(clk, plainBuf) })
	within(t, "plain load miss", plain, 308, 0.05)

	enc := medianOf(t, 5000,
		func(s *System) { s.EvictRange(enclaveBuf, 64) },
		func(s *System, clk *sim.Clock) { s.Load(clk, enclaveBuf) })
	within(t, "encrypted load miss", enc, 400, 0.05)
}

// Table 1 row 10: single cache-store miss: 575 encrypted / 481 plain.
func TestTable1Row10CacheStoreMiss(t *testing.T) {
	plain := medianOf(t, 5000,
		func(s *System) { s.EvictRange(plainBuf, 64) },
		func(s *System, clk *sim.Clock) { s.Store(clk, plainBuf) })
	within(t, "plain store miss", plain, 481, 0.05)

	enc := medianOf(t, 5000,
		func(s *System) { s.EvictRange(enclaveBuf, 64) },
		func(s *System, clk *sim.Clock) { s.Store(clk, enclaveBuf) })
	within(t, "encrypted store miss", enc, 575, 0.05)
}

func TestWarmHitsAreCheap(t *testing.T) {
	rng := sim.NewRNG(5)
	s := New(rng)
	var clk sim.Clock
	s.Load(&clk, plainBuf)
	warmStart := clk.Now()
	s.Load(&clk, plainBuf)
	if cost := clk.Now() - warmStart; cost > 20 {
		t.Fatalf("warm load cost = %d, want <= 20", cost)
	}
}

func TestStreamReadWarmIsCheap(t *testing.T) {
	rng := sim.NewRNG(6)
	s := New(rng)
	var clk sim.Clock
	s.StreamRead(&clk, plainBuf, 2048)
	cold := clk.Now()
	start := clk.Now()
	s.StreamRead(&clk, plainBuf, 2048)
	warm := clk.Now() - start
	if warm*5 > cold {
		t.Fatalf("warm sweep %d should be far below cold sweep %d", warm, cold)
	}
}

func TestEnclaveCostsMoreThanPlain(t *testing.T) {
	rng := sim.NewRNG(7)
	s := New(rng)
	var pc, ec sim.Clock
	s.EvictRange(plainBuf, 8192)
	s.StreamRead(&pc, plainBuf, 8192)
	s.EvictRange(enclaveBuf, 8192)
	// Warm the metadata cache once, then measure steady state.
	s.StreamRead(&ec, enclaveBuf, 8192)
	if ec.Now() <= pc.Now() {
		t.Fatalf("encrypted sweep %d should cost more than plain %d", ec.Now(), pc.Now())
	}
}

func TestPageFaultChargedOnce(t *testing.T) {
	rng := sim.NewRNG(8)
	s := New(rng)
	var clk sim.Clock
	s.Load(&clk, enclaveBuf)
	first := clk.Now()
	if first < 5000 {
		t.Fatalf("first enclave access should include a page fault, cost = %d", first)
	}
	start := clk.Now()
	s.Load(&clk, enclaveBuf+64)
	if cost := clk.Now() - start; cost > 1000 {
		t.Fatalf("second access on same page should not fault, cost = %d", cost)
	}
	if s.PageFaults() != 1 {
		t.Fatalf("page faults = %d, want 1", s.PageFaults())
	}
}

func TestEPCOvercommitThrashes(t *testing.T) {
	rng := sim.NewRNG(9)
	s := NewWithEPC(rng, 16*4096) // 16-page EPC
	// Sweep 20 pages repeatedly: every access beyond capacity faults.
	var clk sim.Clock
	for sweep := 0; sweep < 3; sweep++ {
		for p := uint64(0); p < 20; p++ {
			s.Load(&clk, EnclaveBase+p*4096)
		}
	}
	if s.PageFaults() < 50 {
		t.Fatalf("page faults = %d, want heavy thrashing (~60)", s.PageFaults())
	}
}

func TestCopyChargesBothSides(t *testing.T) {
	rng := sim.NewRNG(10)
	s := New(rng)
	var clk sim.Clock
	s.EvictRange(plainBuf, 2048)
	s.Copy(&clk, plainBuf+1<<20, plainBuf, 2048)
	// compute 256 + src stream (~727) + dst RFO (~224)
	if clk.Now() < 800 || clk.Now() > 2000 {
		t.Fatalf("copy cost = %d, want ~1200", clk.Now())
	}
}

func TestMemsetByteWiseIsSlow(t *testing.T) {
	rng := sim.NewRNG(11)
	s := New(rng)
	var slow, fast sim.Clock
	s.MemsetByteWise(&slow, plainBuf, 2048)
	s.MemsetFast(&fast, plainBuf, 2048)
	if slow.Now() < 2048 {
		t.Fatalf("byte-wise memset = %d, want >= 2048", slow.Now())
	}
	if fast.Now()*3 > slow.Now() {
		t.Fatalf("fast memset %d should be far below byte-wise %d", fast.Now(), slow.Now())
	}
}

func TestEvictRangeIsFree(t *testing.T) {
	rng := sim.NewRNG(12)
	s := New(rng)
	var clk sim.Clock
	s.StreamWrite(&clk, plainBuf, 2048)
	before := clk.Now()
	s.EvictRange(plainBuf, 2048)
	if clk.Now() != before {
		t.Fatal("EvictRange must not charge cycles")
	}
}

func TestZeroSizeOpsAreFree(t *testing.T) {
	rng := sim.NewRNG(13)
	s := New(rng)
	var clk sim.Clock
	s.StreamRead(&clk, plainBuf, 0)
	s.StreamWrite(&clk, plainBuf, 0)
	s.FlushRange(&clk, plainBuf, 0)
	if clk.Now() != 0 {
		t.Fatalf("zero-size ops charged %d cycles", clk.Now())
	}
}

func TestIsEnclave(t *testing.T) {
	s := New(sim.NewRNG(14))
	if s.IsEnclave(PlainBase) {
		t.Fatal("plain address classified as enclave")
	}
	if !s.IsEnclave(EnclaveBase + 100) {
		t.Fatal("enclave address not classified")
	}
}

func TestDirtyVictimWritebackCharged(t *testing.T) {
	rng := sim.NewRNG(21)
	s := New(rng)
	// Dirty a line, then force its eviction through set pressure and
	// confirm the miss that evicts it costs more than one that does not.
	base := PlainBase + uint64(1<<26)
	setStride := uint64(8192 * 64) // same set in the 8192-set LLC
	s.Store(&sim.Clock{}, base)    // dirty line in some set
	var cleanClk, dirtyClk sim.Clock
	// Fill the set with clean lines.
	for w := uint64(1); w <= 15; w++ {
		s.Load(&cleanClk, base+w*setStride)
	}
	costBefore := dirtyClk.Now()
	s.Load(&dirtyClk, base+16*setStride) // evicts the dirty LRU line
	if dirtyClk.Now() == costBefore {
		t.Fatal("eviction charged nothing")
	}
}

func TestStreamSpanningPagesFaultsOncePerPage(t *testing.T) {
	rng := sim.NewRNG(22)
	s := NewWithEPC(rng, 64*4096)
	var clk sim.Clock
	s.StreamRead(&clk, EnclaveBase, 3*4096)
	if got := s.PageFaults(); got != 3 {
		t.Fatalf("page faults = %d, want 3 (one per page)", got)
	}
	var warm sim.Clock
	s.StreamRead(&warm, EnclaveBase, 3*4096)
	if got := s.PageFaults(); got != 3 {
		t.Fatalf("resident sweep faulted again: %d", got)
	}
}

// BenchmarkEnclaveStreamMiss prices one 2 KB streaming read of enclave
// memory that misses the LLC throughout — memcached's value read: the
// buffers cycle through 16 MB, twice the LLC, of EPC-resident pages, so
// every line pays the MEE's integrity-tree walk and no page faults.
// `make bench-sim` runs it beside the cache and EPC benchmarks.
func BenchmarkEnclaveStreamMiss(b *testing.B) {
	const (
		size    = 2048
		buffers = 16 << 20 / size
	)
	s := New(sim.NewRNG(1))
	var clk sim.Clock
	for i := uint64(0); i < buffers; i++ {
		s.StreamRead(&clk, EnclaveBase+i*size, size)
	}
	_, faults, _ := s.EPC.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StreamRead(&clk, EnclaveBase+uint64(i%buffers)*size, size)
	}
	b.StopTimer()
	if _, f, _ := s.EPC.Stats(); f != faults {
		b.Fatalf("%d page faults in the timed loop", f-faults)
	}
	if accesses, misses := s.LLC.Stats(); accesses != misses {
		b.Fatalf("%d of %d LLC accesses hit", accesses-misses, accesses)
	}
}
