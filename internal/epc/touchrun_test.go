package epc

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTouchRunEqualsRepeatedTouch pins Touch(page, n) to n calls of
// Touch(page, 1): same fault and eviction count at the first access, same
// touch clock, faults and evictions, same resident pages with the same
// reference bits and the same clock order from the hand afterwards, and the same working-set samples and estimate —
// sampling every page, sampling 1 in 4 pages, and not tracking — on a
// manager kept at capacity so runs keep evicting.
func TestTouchRunEqualsRepeatedTouch(t *testing.T) {
	const capPages = 5
	for _, tc := range []struct {
		name       string
		tracked    bool
		sampleBits uint
	}{
		{"sample-every-touch", true, 0},
		{"sample-1-in-4", true, 2},
		{"unobserved", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, ref := newTestManager(capPages), newTestManager(capPages)
			if tc.tracked {
				// A window of about three runs, so samples keep expiring.
				run.wss, ref.wss = newWSS(100, tc.sampleBits), newWSS(100, tc.sampleBits)
			}
			r := rand.New(rand.NewSource(11))
			sampledSeen := false
			for i := 0; i < 4000; i++ {
				page, n := uint64(r.Intn(3*capPages)), 1+r.Intn(64)

				fault, evictions := run.Touch(page, n)
				refFault, refEvictions := ref.Touch(page, 1)
				for j := 1; j < n; j++ {
					if f, _ := ref.Touch(page, 1); f {
						t.Fatalf("step %d: access %d of a run faulted in the reference", i, j)
					}
				}
				if fault != refFault || evictions != refEvictions {
					t.Fatalf("step %d: run of %d on page %d = (%v, %d evictions), reference (%v, %d)",
						i, n, page, fault, evictions, refFault, refEvictions)
				}
				rt, rf, re := run.Stats()
				wt, wf, we := ref.Stats()
				if rt != wt || rf != wf || re != we || run.ResidentPages() != ref.ResidentPages() {
					t.Fatalf("step %d: stats (%d, %d, %d), reference (%d, %d, %d)", i, rt, rf, re, wt, wf, we)
				}
				if !reflect.DeepEqual(run.resident, ref.resident) {
					t.Fatalf("step %d: resident pages and reference bits %v, reference %v", i, run.resident, ref.resident)
				}
				if got, want := handOrder(run), handOrder(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: clock from the hand %v, reference %v", i, got, want)
				}
				if !tc.tracked {
					continue
				}
				if got, want := run.WSSPages(), ref.WSSPages(); got != want {
					t.Fatalf("step %d: WSS %d, reference %d", i, got, want)
				}
				if !reflect.DeepEqual(run.wss.samples, ref.wss.samples) {
					t.Fatalf("step %d: samples %v, reference %v", i, run.wss.samples, ref.wss.samples)
				}
				sampledSeen = sampledSeen || len(run.wss.samples) > 0
			}
			if _, _, ev := run.Stats(); ev == 0 {
				t.Fatal("no evictions: the manager was never at capacity")
			}
			if tc.tracked && !sampledSeen {
				t.Fatal("the estimate sampled nothing")
			}
		})
	}
}
