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
		if _, executes, _ := r.Stats(); executes != uint64(requesters*callsEach) {
			t.Errorf("%d requesters: %d executes, want %d", requesters, executes, requesters*callsEach)
		}
		u := r.Utilization()
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

// Section 4.2, "Conserving resources at idle times": a sleeping responder
// stops burning polls, and the next request wakes it.
func TestIdleSleepStopsPolling(t *testing.T) {
	hc := patientHotCall()
	r := NewResponder(hc, []func(interface{}) uint64{
		func(interface{}) uint64 { return 9 },
	})
	r.IdleTimeout = 5
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Run()
	}()
	defer func() { hc.Stop(); wg.Wait() }()

	// Wait for the responder to fall asleep.
	for i := 0; i < 100000 && !hc.sleeping.Load(); i++ {
		pause()
	}
	if !hc.sleeping.Load() {
		t.Skip("responder did not reach sleep on this scheduler")
	}
	pollsAsleep, _, _ := r.Stats()
	for i := 0; i < 1000; i++ {
		pause()
	}
	pollsLater, _, _ := r.Stats()
	if pollsLater > pollsAsleep+2 {
		t.Errorf("responder kept polling while asleep: %d -> %d", pollsAsleep, pollsLater)
	}
	// A request must still complete (requester signals the wake).
	if ret, err := hc.Call(0, nil); err != nil || ret != 9 {
		t.Fatalf("post-sleep call = (%d, %v)", ret, err)
	}
}
