package core

import (
	"sync"
	"testing"
)

// Section 4.2, "Maximizing utilization": the responder burns its core
// polling; utilization is the fraction of polls that execute work, and it
// can be improved by sharing one responder among several requesters.
func TestUtilizationGrowsWithSharing(t *testing.T) {
	const callsEach = 400
	measure := func(requesters int) float64 {
		hc := patientHotCall()
		r := NewResponder(hc, []func(interface{}) uint64{
			func(interface{}) uint64 { return 0 },
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run()
		}()
		var callers sync.WaitGroup
		for g := 0; g < requesters; g++ {
			callers.Add(1)
			go func() {
				defer callers.Done()
				for i := 0; i < callsEach; i++ {
					if _, err := hc.Call(0, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		callers.Wait()
		hc.Stop()
		wg.Wait()
		// What is exact: every call made was executed once, and the
		// executes are a non-empty part of the polls.
		polls, executes := r.Stats()
		if executes != uint64(requesters*callsEach) {
			t.Errorf("%d requesters: %d executes, want %d", requesters, executes, requesters*callsEach)
		}
		u := float64(executes) / float64(polls)
		if u <= 0 || u > 1 {
			t.Errorf("%d requesters: utilization %.3f outside (0, 1]", requesters, u)
		}
		return u
	}
	// Whether sharing raises the ratio is the scheduler's to say — on few
	// hardware threads the Gosched round-robin decides how many empty
	// polls fall between two calls — so the comparison is logged, not
	// asserted.
	t.Logf("utilization: 1 requester %.3f, 4 requesters %.3f", measure(1), measure(4))
}

// Section 4.2, "Conserving resources at idle times": a parked responder
// stops burning polls, and the next request is still served.
func TestIdleSleepStopsPolling(t *testing.T) {
	p := NewCallPool([]PoolFunc{func(int, uint64) uint64 { return 9 }}, testPool(1, 1))
	p.Start()
	defer p.Stop()

	waitParked(t, p)
	pollsAsleep, _ := p.Stats()
	for i := 0; i < 1000; i++ {
		pause()
	}
	if pollsLater, _ := p.Stats(); pollsLater != pollsAsleep {
		t.Errorf("responder kept polling while parked: %d -> %d", pollsAsleep, pollsLater)
	}
	if ret, err := p.Requester().Call(0, 0); err != nil || ret != 9 {
		t.Fatalf("call on a parked responder = (%d, %v)", ret, err)
	}
}
