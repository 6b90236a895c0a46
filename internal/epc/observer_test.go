package epc

import (
	"runtime"
	"sync"
	"testing"
)

// recObserver is a recording Observer for tests.  The manager invokes
// every callback under its paging lock, so plain fields are safe even
// when many goroutines drive the manager.
type recObserver struct {
	touches      []uint64 // sampled pages, in order
	touchOwners  []OwnerID
	faults       uint64
	evicts       uint64
	interference map[uint64]uint64 // culprit<<32|victim → count
	flushes      int
	lastNow      uint64
}

func newRecObserver() *recObserver {
	return &recObserver{interference: make(map[uint64]uint64)}
}

func (o *recObserver) ObserveTouch(owner OwnerID, page, now uint64) {
	o.touches = append(o.touches, page)
	o.touchOwners = append(o.touchOwners, owner)
}

func (o *recObserver) ObserveFault(owner OwnerID, page uint64) { o.faults++ }

func (o *recObserver) ObserveEvict(culprit, victim OwnerID, page uint64) {
	o.evicts++
	o.interference[uint64(culprit)<<32|uint64(victim)]++
}

func (o *recObserver) Flush(now uint64) { o.flushes++; o.lastNow = now }

// TestObserverCountsMatchManager drives multi-owner thrash and checks the
// observer saw exactly the manager's faults and evictions, with the
// interference matrix summing to the eviction total.
func TestObserverCountsMatchManager(t *testing.T) {
	m := newTestManager(8)
	obs := newRecObserver()
	m.SetObserver(obs, 0) // sample every touch

	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 12; p++ {
			owner := OwnerID(1 + p%3)
			m.TouchAs(owner, p)
		}
	}
	touches, faults, evictions := m.Stats()

	if got := uint64(len(obs.touches)); got != touches {
		t.Fatalf("observer saw %d touches, manager counted %d", got, touches)
	}
	if obs.faults != faults {
		t.Fatalf("observer saw %d faults, manager counted %d", obs.faults, faults)
	}
	if obs.evicts != evictions {
		t.Fatalf("observer saw %d evictions, manager counted %d", obs.evicts, evictions)
	}
	var interfSum uint64
	for _, n := range obs.interference {
		interfSum += n
	}
	if interfSum != evictions {
		t.Fatalf("interference cells sum to %d, want total evictions %d", interfSum, evictions)
	}
}

// TestObserverEvictAttribution installs owner A's pages, then faults
// owner B past capacity: every eviction must be attributed culprit=B,
// victim=A.
func TestObserverEvictAttribution(t *testing.T) {
	const capPages = 4
	m := newTestManager(capPages)
	obs := newRecObserver()
	m.SetObserver(obs, 0)

	const a, b = OwnerID(1), OwnerID(2)
	for p := uint64(0); p < capPages; p++ {
		m.TouchAs(a, p)
	}
	// B touches fresh pages; each faults and must evict one of A's.
	for p := uint64(100); p < 100+capPages; p++ {
		m.TouchAs(b, p)
	}
	if obs.evicts != capPages {
		t.Fatalf("evictions = %d, want %d", obs.evicts, capPages)
	}
	key := uint64(b)<<32 | uint64(a)
	if obs.interference[key] != capPages {
		t.Fatalf("culprit=%d victim=%d count = %d, want %d; matrix %v",
			b, a, obs.interference[key], capPages, obs.interference)
	}
}

// TestObserverSamplingGate checks the touch callback fires exactly for
// the pages SampledTouch admits at the configured rate, and that the
// owner tag rides along.
func TestObserverSamplingGate(t *testing.T) {
	const bits = 3
	m := newTestManager(64)
	obs := newRecObserver()
	m.SetObserver(obs, bits)

	const n = 512
	want := 0
	for p := uint64(0); p < n; p++ {
		m.TouchAs(OwnerID(7), p)
		if SampledTouch(p, bits) {
			want++
		}
	}
	if len(obs.touches) != want {
		t.Fatalf("sampled %d touches, want %d", len(obs.touches), want)
	}
	if want == 0 {
		t.Fatal("gate admitted no pages at 1-in-8 over 512 pages; hash is broken")
	}
	for i, p := range obs.touches {
		if !SampledTouch(p, bits) {
			t.Fatalf("observer saw page %d which the gate should reject", p)
		}
		if obs.touchOwners[i] != 7 {
			t.Fatalf("touch %d tagged owner %d, want 7", i, obs.touchOwners[i])
		}
	}
}

// TestFlushObserverRunsUnderLock checks FlushObserver passes the touch
// clock through and is a no-op without an observer.
func TestFlushObserverRunsUnderLock(t *testing.T) {
	m := newTestManager(4)
	m.FlushObserver() // no observer: must not panic
	obs := newRecObserver()
	m.SetObserver(obs, 0)
	m.TouchAs(1, 0)
	m.TouchAs(1, 1)
	m.FlushObserver()
	if obs.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", obs.flushes)
	}
	if obs.lastNow != 2 {
		t.Fatalf("flush saw touch clock %d, want 2", obs.lastNow)
	}
}

// TestConcurrentTouchStress hammers one manager from many goroutines —
// mixed owners, through TouchAs, the shared path (TouchRunAs is the single
// owner's and takes no lock) — and checks the invariants hold afterwards.
// Run under -race this is the paging lock's correctness test.
func TestConcurrentTouchStress(t *testing.T) {
	const (
		capPages  = 64
		pageSpan  = 256
		workers   = 4
		perWorker = 20000
	)
	m := newTestManager(capPages)
	obs := newRecObserver()
	m.SetObserver(obs, 2)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := OwnerID(w + 1)
			p := uint64(w * 31)
			for i := 0; i < perWorker; i++ {
				p = (p*2862933555777941757 + 3037000493) % pageSpan
				m.TouchAs(owner, p)
			}
		}(w)
	}

	// A reader goroutine exercises the locked accessors concurrently.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := m.ResidentPages(); r > capPages {
				t.Errorf("resident %d exceeds capacity %d", r, capPages)
				return
			}
			m.Stats()
			m.FlushObserver()
			runtime.Gosched()
		}
	}()

	wg.Wait()
	close(stop)
	rg.Wait()

	if r := m.ResidentPages(); r > capPages {
		t.Fatalf("resident %d exceeds capacity %d", r, capPages)
	}
	_, faults, evictions := m.Stats()
	if obs.faults != faults {
		t.Fatalf("observer faults %d != manager faults %d", obs.faults, faults)
	}
	if obs.evicts != evictions {
		t.Fatalf("observer evictions %d != manager evictions %d", obs.evicts, evictions)
	}
	var interfSum uint64
	for _, n := range obs.interference {
		interfSum += n
	}
	if interfSum != evictions {
		t.Fatalf("interference sum %d != evictions %d", interfSum, evictions)
	}
}
