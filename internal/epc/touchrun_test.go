package epc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// seqObserver records every callback with all its arguments, in order, so
// two managers can be compared event for event.
type seqObserver struct{ log []string }

func (o *seqObserver) ObserveTouch(owner OwnerID, page, now uint64) {
	o.log = append(o.log, fmt.Sprintf("touch o%d p%d @%d", owner, page, now))
}
func (o *seqObserver) ObserveFault(owner OwnerID, page uint64) {
	o.log = append(o.log, fmt.Sprintf("fault o%d p%d", owner, page))
}
func (o *seqObserver) ObserveEvict(culprit, victim OwnerID, page uint64, dirty bool) {
	o.log = append(o.log, fmt.Sprintf("evict o%d<-o%d p%d dirty=%v", culprit, victim, page, dirty))
}
func (o *seqObserver) Flush(uint64) {}

// TestTouchRunEqualsRepeatedTouch pins TouchRunAs(n) to n TouchAs calls:
// same fault and cycle charge at the first access, same touch clock,
// faults and evictions, same resident set and clock-hand behaviour
// afterwards, and the same observer callback sequence — sampling every
// touch, sampling 1 in 4 pages, and unobserved — on a manager kept at
// capacity so runs keep evicting.
func TestTouchRunEqualsRepeatedTouch(t *testing.T) {
	const capPages = 5
	for _, tc := range []struct {
		name       string
		observed   bool
		sampleBits uint
	}{
		{"sample-every-touch", true, 0},
		{"sample-1-in-4", true, 2},
		{"unobserved", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, ref := newTestManager(capPages), newTestManager(capPages)
			runObs, refObs := &seqObserver{}, &seqObserver{}
			if tc.observed {
				run.SetObserver(runObs, tc.sampleBits)
				ref.SetObserver(refObs, tc.sampleBits)
			}
			r := rand.New(rand.NewSource(11))
			for i := 0; i < 4000; i++ {
				owner, page, n := OwnerID(r.Intn(3)), uint64(r.Intn(3*capPages)), 1+r.Intn(64)

				fault, evictions := run.TouchRunAs(owner, page, n)
				var cycles float64
				if fault {
					cycles = FaultCycles(evictions)
				}

				refFault, refCycles := ref.TouchAs(owner, page)
				for j := 1; j < n; j++ {
					if f, c := ref.TouchAs(owner, page); f || c != 0 {
						t.Fatalf("step %d: access %d of a run faulted in the reference", i, j)
					}
				}
				if fault != refFault || cycles != refCycles {
					t.Fatalf("step %d: run of %d on page %d = (%v, %v cycles), reference (%v, %v)",
						i, n, page, fault, cycles, refFault, refCycles)
				}
				rt, rf, re := run.Stats()
				wt, wf, we := ref.Stats()
				if rt != wt || rf != wf || re != we || run.ResidentPages() != ref.ResidentPages() {
					t.Fatalf("step %d: stats (%d, %d, %d), reference (%d, %d, %d)", i, rt, rf, re, wt, wf, we)
				}
			}
			if !reflect.DeepEqual(runObs.log, refObs.log) {
				for i := range refObs.log {
					if i >= len(runObs.log) || runObs.log[i] != refObs.log[i] {
						t.Fatalf("observer sequences diverge at callback %d: reference %q", i, refObs.log[i])
					}
				}
				t.Fatalf("run delivered %d callbacks, reference %d", len(runObs.log), len(refObs.log))
			}
			if _, _, ev := run.Stats(); ev == 0 {
				t.Fatal("no evictions: the manager was never at capacity")
			}
			if tc.observed && len(runObs.log) == 0 {
				t.Fatal("observer saw nothing")
			}
		})
	}
}
