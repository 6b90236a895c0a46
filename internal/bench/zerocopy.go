package bench

// The zerocopy experiment quantifies what the zero-copy payload rings
// buy over staged marshalling: a simulated-cycle sweep (2-32 KB) of
// staged [in,out] edge crossings against [zerocopy] ring-backed
// crossings, for both ecalls and ocalls — the direction-aware
// marshalling core's own accounting, byte-deterministic under a fixed
// seed.  What the rings buy in wall-clock time on the real fabric is the
// repo benchmark's vpn_stream workload and BenchmarkStreamWindow.

import (
	"fmt"
	"strings"

	"hotcalls/internal/edl"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

// zcSweepEDL declares the staged and zero-copy edge crossings the
// simulated sweep compares.  ecall_driver hosts the ocall measurements
// (measureOcall brackets inside it).
const zcSweepEDL = `
enclave {
    trusted {
        public int ecall_staged([in, out, size=len] uint8_t* buf, size_t len);
        public int ecall_zc([zerocopy, size=len] uint8_t* buf, size_t len);
        public int ecall_driver(void);
    };
    untrusted {
        int ocall_staged([in, out, size=len] uint8_t* buf, size_t len);
        int ocall_zc([zerocopy, size=len] uint8_t* buf, size_t len);
    };
};
`

// zcSweepKB is the payload axis, extending the Figure 4/5 sweep (1-16
// KB) up to the 32 KB point the acceptance gate checks.
var zcSweepKB = []uint64{2, 4, 8, 16, 32}

// zcSweepRuns per simulated point; medians stabilize far earlier.
const zcSweepRuns = 1500

// newZCSweepFixture is a microbenchmark fixture speaking zcSweepEDL.
func newZCSweepFixture(seed uint64) *microFixture {
	f := newMicroFixture(seed)
	f.rt.EDL = edl.MustParse(zcSweepEDL)
	noop := func(ctx *sdk.Ctx, args []sdk.Arg) uint64 { return 0 }
	f.rt.MustBindECall("ecall_staged", noop)
	f.rt.MustBindECall("ecall_zc", noop)
	f.rt.MustBindOCall("ocall_staged", noop)
	f.rt.MustBindOCall("ocall_zc", noop)
	return f
}

// zcSimPoint is one payload size's simulated medians (cycles).
type zcSimPoint struct {
	kb                   uint64
	ecallStaged, ecallZC float64
	ocallStaged, ocallZC float64
}

// zcSimSweep measures the staged-vs-zero-copy crossing cost over the
// payload axis in simulated cycles.  Each variant gets a fresh fixture
// so the RNG streams of every point are independent of sweep order.
func zcSimSweep(runs int) []zcSimPoint {
	out := make([]zcSimPoint, 0, len(zcSweepKB))
	for _, kb := range zcSweepKB {
		size := kb << 10
		pt := zcSimPoint{kb: kb}

		// Staged ecall: an untrusted buffer marshalled both ways.
		f := newZCSweepFixture(131)
		var clk sim.Clock
		buf := f.rt.Arena.AllocBuffer(&clk, size)
		pt.ecallStaged = f.measureEcall("ecall_staged", runs, nil,
			sdk.Buf(buf), sdk.Scalar(size)).Median()

		// Zero-copy ecall: the same buffer registered as a shared ring,
		// handed through after the ring-membership check.
		f = newZCSweepFixture(131)
		buf = f.rt.Arena.AllocBuffer(&clk, size)
		if err := f.rt.RegisterSharedRing(buf.Addr, size); err != nil {
			panic(err)
		}
		pt.ecallZC = f.measureEcall("ecall_zc", runs, nil,
			sdk.Buf(buf), sdk.Scalar(size)).Median()

		// Staged ocall: an enclave buffer staged out and back.
		f = newZCSweepFixture(137)
		ebuf := mustEnclaveBuf(f, size)
		pt.ocallStaged = f.measureOcall("ocall_staged", runs, nil,
			sdk.Buf(ebuf), sdk.Scalar(size)).Median()

		// Zero-copy ocall: a ring slab crossing outward in place.
		f = newZCSweepFixture(137)
		buf = f.rt.Arena.AllocBuffer(&clk, size)
		if err := f.rt.RegisterSharedRing(buf.Addr, size); err != nil {
			panic(err)
		}
		pt.ocallZC = f.measureOcall("ocall_zc", runs, nil,
			sdk.Buf(buf), sdk.Scalar(size)).Median()

		out = append(out, pt)
	}
	return out
}

// runZeroCopy regenerates the staged-vs-zero-copy comparison.
func runZeroCopy() *Report {
	r := &Report{
		ID:    "zerocopy",
		Title: "Zero-copy payload rings: staged vs in-place transfer (simulated crossing-cost sweep)",
		CSV:   map[string]string{},
	}

	sweep := zcSimSweep(zcSweepRuns)
	tbl := &table{header: []string{"size (KB)", "ecall staged", "ecall zc", "ratio",
		"ocall staged", "ocall zc", "ratio"}}
	var csv strings.Builder
	csv.WriteString("size_bytes,ecall_staged_cycles,ecall_zerocopy_cycles,ocall_staged_cycles,ocall_zerocopy_cycles\n")
	for _, pt := range sweep {
		er := pt.ecallStaged / pt.ecallZC
		or := pt.ocallStaged / pt.ocallZC
		tbl.add(fmt.Sprint(pt.kb), f0(pt.ecallStaged), f0(pt.ecallZC), f2(er)+"x",
			f0(pt.ocallStaged), f0(pt.ocallZC), f2(or)+"x")
		fmt.Fprintf(&csv, "%d,%.0f,%.0f,%.0f,%.0f\n", pt.kb<<10,
			pt.ecallStaged, pt.ecallZC, pt.ocallStaged, pt.ocallZC)
		r.Values = append(r.Values,
			Value{Name: fmt.Sprintf("sim ecall %dKB", pt.kb), Got: er, Unit: "x"},
			Value{Name: fmt.Sprintf("sim ocall %dKB", pt.kb), Got: or, Unit: "x"},
		)
	}
	r.CSV["zerocopy_sweep.csv"] = csv.String()

	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "zerocopy", Title: "Zero-copy ring transfer sweep", Run: runZeroCopy})
}
