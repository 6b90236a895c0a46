package bench

import "testing"

// TestZeroCopySweep32KBRatio pins the acceptance floor on the simulated
// sweep: at the 32 KB point, zero-copy ring crossings must beat staged
// [in,out] marshalling by at least 2x on both edges.  The sweep runs in
// simulated cycles under the default seed, so the check is exact and
// cannot flake on a loaded CI host.
func TestZeroCopySweep32KBRatio(t *testing.T) {
	pts := zcSimSweep(300)
	var got *zcSimPoint
	for i := range pts {
		if pts[i].kb == 32 {
			got = &pts[i]
		}
	}
	if got == nil {
		t.Fatal("sweep has no 32KB point")
	}
	if r := got.ecallStaged / got.ecallZC; r < 2 {
		t.Errorf("32KB ecall staged/zerocopy = %.2fx (staged %.0f, zc %.0f cycles), want >= 2x",
			r, got.ecallStaged, got.ecallZC)
	}
	if r := got.ocallStaged / got.ocallZC; r < 2 {
		t.Errorf("32KB ocall staged/zerocopy = %.2fx (staged %.0f, zc %.0f cycles), want >= 2x",
			r, got.ocallStaged, got.ocallZC)
	}

	// The ratio must grow with payload size: staged cost is linear in
	// bytes moved, zero-copy cost is flat.
	first := pts[0]
	if f, l := first.ecallStaged/first.ecallZC, got.ecallStaged/got.ecallZC; l <= f {
		t.Errorf("ecall ratio not growing with size: %dKB %.2fx vs 32KB %.2fx", first.kb, f, l)
	}
}
