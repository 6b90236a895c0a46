package telemetry

import (
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindAEX, "aex", 1, 0, 0)
	if ev := tr.Events(); ev != nil {
		t.Fatal("nil tracer should have no events")
	}
}

// TestConcurrentWritersAndSnapshot: parallel writers emit into the tracer
// while a reader copies the ring out.  Run with -race.
func TestConcurrentWritersAndSnapshot(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	const capacity = writers * perWriter
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Emit(KindHotECall, "hot", uint64(i), 620, uint64(id))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			// Race the ring's reader against live Emit traffic: Events
			// walks the ring under the same lock.
			if ev := tr.Events(); len(ev) > capacity {
				t.Errorf("ring returned %d events, capacity %d", len(ev), capacity)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	perID := make([]int, writers)
	for _, e := range tr.Events() {
		perID[e.Arg]++
	}
	for id, n := range perID {
		if n != perWriter {
			t.Fatalf("writer %d: %d events retained, want %d", id, n, perWriter)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(KindEcall, "e", uint64(i), 1, 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.TS != uint64(6+i) {
			t.Fatalf("event %d has ts %d, want %d (oldest-first after wrap)", i, e.TS, 6+i)
		}
	}
}
