package bench

import (
	"math"
	"strings"
	"testing"
)

func TestAblationCallsSavings(t *testing.T) {
	r := report(t, "ablation-calls")
	byName := map[string]Value{}
	for _, v := range r.Values {
		byName[v.Name] = v
	}
	// Savings the paper quantifies must reproduce closely.
	for name, tol := range map[string]float64{
		"ocall: in&out instead of out":        0.10,
		"ecall: user_check instead of out":    0.10,
		"deliver via ocall-in, not ecall-out": 0.10,
		"ocall out: No-Redundant-Zeroing":     0.10,
	} {
		v, ok := byName[name]
		if !ok {
			t.Fatalf("missing ablation %q", name)
		}
		if dev := math.Abs(v.Deviation()); dev > tol {
			t.Errorf("%s: saving %.0f vs paper %.0f (%.0f%% off)", name, v.Got, v.Paper, dev*100)
		}
	}
	// The ecall in&out saving should be near the paper's 885 (our
	// staging gives slightly more because the in&out copy-in finds a
	// colder source); keep a loose band.
	if v := byName["ecall: in&out instead of out"]; v.Got < 600 || v.Got > 1400 {
		t.Errorf("ecall in&out saving = %.0f, want ~885", v.Got)
	}
	// The proposed optimized memset must save most of the byte-wise cost.
	for _, name := range []string{"ecall out: optimized memset/memcpy", "ocall out: optimized memset/memcpy"} {
		if v := byName[name]; v.Got < 1500 {
			t.Errorf("%s: saving = %.0f, want ~1,900", name, v.Got)
		}
	}
}

func TestAblationCoresVerdict(t *testing.T) {
	// Section 4.4: HotCalls are preferred over a second worker thread
	// when they more than double throughput — which the paper's three
	// applications all do.
	r := report(t, "ablation-cores")
	for _, v := range r.Values {
		if v.Got <= 2.0 {
			t.Errorf("%s = %.2fx: the responder core should more than double throughput", v.Name, v.Got)
		}
	}
	if !strings.Contains(r.Table, "prefer HotCalls responder") {
		t.Error("verdict column missing")
	}
}
