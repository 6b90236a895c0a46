package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// zcPool builds a ring-enabled pool whose vec table sums the referenced
// slab bytes and stamps the low data byte into the first segment — an
// in-place write the requester can observe, proving the responder worked
// on the shared slab rather than a copy.
func zcPool(shards, maxResponders int) *CallPool {
	opts := testPool(shards, maxResponders)
	opts.RingSlabs = 8
	opts.RingSlabBytes = 4096
	p := NewCallPool(echoTable(), opts)
	p.SetVecTable([]PoolVecFunc{
		func(requester int, data uint64, segs []Segment) uint64 {
			ring := p.Ring(requester)
			var sum uint64
			for _, sg := range segs {
				for _, b := range ring.Bytes(sg) {
					sum += uint64(b)
				}
			}
			ring.Bytes(segs[0])[0] = byte(data)
			return sum
		},
	})
	return p
}

func TestPayloadRingAcquireRelease(t *testing.T) {
	pr := newPayloadRing(4, 1024)
	if pr.Slabs() != 4 || pr.SlabBytes() != 1024 || pr.FreeSlabs() != 4 {
		t.Fatalf("ring shape = (%d, %d, %d)", pr.Slabs(), pr.SlabBytes(), pr.FreeSlabs())
	}
	seen := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		slab, buf, ok := pr.Acquire()
		if !ok || len(buf) != 1024 {
			t.Fatalf("Acquire %d = (%d, %d bytes, %v)", i, slab, len(buf), ok)
		}
		if seen[slab] {
			t.Fatalf("slab %d handed out twice", slab)
		}
		seen[slab] = true
	}
	if _, _, ok := pr.Acquire(); ok {
		t.Fatal("Acquire succeeded with every slab in flight")
	}
	pr.Release(2)
	if slab, _, ok := pr.Acquire(); !ok || slab != 2 {
		t.Fatalf("reacquire = (%d, %v), want slab 2", slab, ok)
	}
	// Segment addressing views the same backing bytes as the slab.
	pr.Slab(1)[10] = 0xAA
	if got := pr.Bytes(Segment{Slab: 1, Off: 10, Len: 1})[0]; got != 0xAA {
		t.Fatalf("segment view = %#x, want 0xAA", got)
	}
}

func TestPoolZeroCopyRoundTrip(t *testing.T) {
	p := zcPool(1, 2)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	ring := r.Ring()
	if ring == nil {
		t.Fatal("ring-enabled pool returned nil ring")
	}

	slab, buf, ok := ring.Acquire()
	if !ok {
		t.Fatal("no free slab")
	}
	for i := 0; i < 100; i++ {
		buf[i] = 1
	}
	// Scatter-gather: two disjoint windows of one slab.
	segs := [2]Segment{
		{Slab: slab, Off: 0, Len: 60},
		{Slab: slab, Off: 60, Len: 40},
	}
	ret, err := r.CallV(VecCall{Data: 0x7f, Segs: segs[:]})
	if err != nil {
		t.Fatal(err)
	}
	if ret != 100 {
		t.Fatalf("sum = %d, want 100", ret)
	}
	if buf[0] != 0x7f {
		t.Fatalf("in-place responder write lost: buf[0] = %#x", buf[0])
	}
	ring.Release(slab)
}

func TestPoolZeroCopyWithoutVecTable(t *testing.T) {
	opts := testPool(1, 1)
	opts.RingSlabs = 2
	p := NewCallPool(echoTable(), opts) // no SetVecTable
	p.Start()
	defer p.Stop()
	r := p.Requester()
	slab, _, _ := r.Ring().Acquire()
	segs := [1]Segment{{Slab: slab, Off: 0, Len: 8}}
	ret, err := r.CallV(VecCall{Segs: segs[:]})
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("vec call without table = (%#x, %v), want sentinel", ret, err)
	}
}

// TestPoolSlotReuseClearsDescriptors posts a scatter-gather call and
// then enough plain calls to lap the slot ring, proving a reused slot
// never replays the prior call's descriptors into the vec table.
func TestPoolSlotReuseClearsDescriptors(t *testing.T) {
	p := zcPool(1, 1)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	slab, buf, _ := r.Ring().Acquire()
	buf[0] = 5
	segs := [1]Segment{{Slab: slab, Off: 0, Len: 1}}
	if ret, err := r.CallV(VecCall{Data: 5, Segs: segs[:]}); err != nil || ret != 5 {
		t.Fatalf("ZC call = (%d, %v)", ret, err)
	}
	r.Ring().Release(slab)
	for i := uint64(0); i < 64; i++ {
		ret, err := r.Call(0, i)
		if err != nil || ret != i {
			t.Fatalf("plain call %d after ZC = (%d, %v); stale descriptors?", i, ret, err)
		}
	}
}

func TestPoolSubmitVWaitAll(t *testing.T) {
	p := zcPool(1, 2)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	ring := r.Ring()

	// A window mixing scatter-gather and plain uint64 calls.
	const window = 8
	var calls [window]VecCall
	var segs [window][1]Segment
	var slabs []uint32
	for i := 0; i < window; i++ {
		if i%2 == 0 {
			slab, buf, ok := ring.Acquire()
			if !ok {
				t.Fatal("no free slab")
			}
			buf[0] = byte(i)
			segs[i] = [1]Segment{{Slab: slab, Off: 0, Len: 1}}
			calls[i] = VecCall{ID: 0, Data: uint64(i), Segs: segs[i][:]}
			slabs = append(slabs, slab)
		} else {
			calls[i] = VecCall{ID: 0, Data: uint64(100 + i)}
		}
	}
	b, err := r.SubmitV(calls[:])
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != window {
		t.Fatalf("batch posted %d, want %d", b.Len(), window)
	}
	var rets [window]uint64
	if err := b.WaitAll(rets[:]); err != nil {
		t.Fatal(err)
	}
	for _, slab := range slabs {
		ring.Release(slab)
	}
	for i := 0; i < window; i++ {
		want := uint64(i) // vec path: byte sum
		if i%2 == 1 {
			want = uint64(100 + i) // plain path: echo
		}
		if rets[i] != want {
			t.Fatalf("rets[%d] = %d, want %d", i, rets[i], want)
		}
	}
	if ring.FreeSlabs() != ring.Slabs() {
		t.Fatalf("slabs leaked: %d free of %d", ring.FreeSlabs(), ring.Slabs())
	}
}

// TestPoolCallZeroCopyZeroAlloc pins the unsampled zero-copy submit
// path's performance contract, mirroring TestPoolCallZeroAlloc: the
// requester side runs with zero heap allocations per operation, and by
// construction with no LOCK-prefixed read-modify-write on the submit
// side — the head cursor and free-slab list are requester-owned plain
// fields, descriptors land on a requester-written line of the
// heap-resident slot, and publication is a single release store of the
// state word.  AllocsPerRun pins the allocation half; the
// synchronization half is structural (no CAS/Add appears in
// postZC/Acquire/Release).
func TestPoolCallZeroCopyZeroAlloc(t *testing.T) {
	p := zcPool(1, 1)
	p.Start()
	defer p.Stop()
	r := p.Requester()
	ring := r.Ring()

	slab, buf, _ := ring.Acquire()
	buf[0] = 1

	// Warm the batch handle pool.
	var segsW [1]Segment
	segsW[0] = Segment{Slab: slab, Off: 0, Len: 1}
	var callsW [2]VecCall
	callsW[0] = VecCall{ID: 0, Segs: segsW[:]}
	callsW[1] = VecCall{ID: 0, Data: 9}
	if b, err := r.SubmitV(callsW[:]); err != nil {
		t.Fatal(err)
	} else if err := b.WaitAll(nil); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		segs := [2]Segment{
			{Slab: slab, Off: 0, Len: 1},
			{Slab: slab, Off: 1, Len: 1},
		}
		if _, err := r.CallV(VecCall{Data: 1, Segs: segs[:]}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("zero-copy CallV allocates %.1f per op, want 0", n)
	}

	var calls [2]VecCall
	var segs [2][1]Segment
	var rets [2]uint64
	if n := testing.AllocsPerRun(200, func() {
		s2, _, ok := ring.Acquire()
		if !ok {
			t.Fatal("no free slab")
		}
		segs[0] = [1]Segment{{Slab: s2, Off: 0, Len: 1}}
		calls[0] = VecCall{ID: 0, Segs: segs[0][:]}
		calls[1] = VecCall{ID: 0, Data: 4}
		b, err := r.SubmitV(calls[:])
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WaitAll(rets[:]); err != nil {
			t.Fatal(err)
		}
		ring.Release(s2)
	}); n != 0 {
		t.Fatalf("SubmitV/WaitAll allocates %.1f per op, want 0", n)
	}
}

// TestPoolZeroCopyConcurrentStress crosses concurrent requesters, slab
// recycling around synchronous calls and vectored windows, and responder
// churn (the adaptive controller growing and shrinking under bursty
// load) — run under -race by make test-race.
func TestPoolZeroCopyConcurrentStress(t *testing.T) {
	const requesters = 4
	p := zcPool(requesters, 3)
	p.Start()
	defer p.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, requesters)
	for ri := 0; ri < requesters; ri++ {
		r := p.Requester()
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			ring := r.Ring()
			var calls [4]VecCall
			var segs [4][2]Segment
			var slabs [4]uint32
			var rets [4]uint64
			for i := 0; !stop.Load(); i++ {
				// Phase 1: sync ZC call with manual release.
				slab, buf, ok := ring.Acquire()
				if !ok {
					errs <- nil
					return
				}
				buf[0], buf[1] = byte(i), byte(i>>8)
				sg := [2]Segment{{Slab: slab, Off: 0, Len: 1}, {Slab: slab, Off: 1, Len: 1}}
				if _, err := r.CallV(VecCall{Data: uint64(i), Segs: sg[:]}); err != nil {
					errs <- err
					return
				}
				ring.Release(slab)

				// Phase 2: vectored window, slabs released after the wait.
				n := 0
				for ; n < len(calls); n++ {
					s3, _, ok := ring.Acquire()
					if !ok {
						break
					}
					slabs[n] = s3
					segs[n] = [2]Segment{{Slab: s3, Off: 0, Len: 8}, {Slab: s3, Off: 8, Len: 8}}
					calls[n] = VecCall{ID: 0, Segs: segs[n][:]}
				}
				if n > 0 {
					b, err := r.SubmitV(calls[:n])
					if err != nil {
						errs <- err
						return
					}
					if err := b.WaitAll(rets[:n]); err != nil {
						errs <- err
						return
					}
					for j := 0; j < n; j++ {
						ring.Release(slabs[j])
					}
				}
			}
			errs <- nil
		}(ri)
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	for i := 0; i < requesters; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
