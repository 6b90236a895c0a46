package sim

// This file implements the measurement methodology of Section 3.1: runs
// that suffered an Asynchronous Exit (AEX) — the SGX analogue of an OS
// interrupt landing while the enclave runs — are detected by monitoring the
// AEX landing pad and discarded.  The paper runs 10 batches of 20,000; the
// harness runs each microbenchmark once, in one batch (DESIGN.md section 1).

// Methodology constants from Section 3.1 of the paper.
const (
	TSCAccuracy   = 2 // RDTSCP accuracy in cycles, +/-
	aexRatePerSec = 500
	// AEXCostCycles is what an asynchronous exit adds to a contaminated
	// run: the hardware saves the enclave context to the SSA, exits,
	// the OS services the interrupt, and ERESUME restores the context.
	AEXCostCycles = 12000
)

// AEXInjector models asynchronous exits: OS interrupts arriving at a fixed
// average rate, independent of the enclave's activity.  A measurement of d
// cycles is hit with probability d * rate / frequency.
type AEXInjector struct {
	rng  *RNG
	rate float64 // interrupts per second
	hits int
}

// NewAEXInjector returns an injector with the default interrupt rate
// (about 500/s, which reproduces the paper's observed 200-300 contaminated
// runs out of 200,000 at ~10,000-cycle experiment lengths).
func NewAEXInjector(rng *RNG) *AEXInjector {
	return &AEXInjector{rng: rng, rate: aexRatePerSec}
}

// Interrupted reports whether an experiment of the given duration was hit
// by an asynchronous exit, and counts hits.
func (a *AEXInjector) Interrupted(cycles uint64) bool {
	p := float64(cycles) * a.rate / FrequencyHz
	if a.rng.Float64() < p {
		a.hits++
		return true
	}
	return false
}

// Hits returns the number of asynchronous exits observed so far, the
// simulated equivalent of monitoring the AEX landing pad.
func (a *AEXInjector) Hits() int { return a.hits }

// Result carries the outcome of one measurement.
type Result struct {
	Sample    *Sample // retained (uncontaminated) measurements
	Discarded int     // runs discarded due to asynchronous exits
}

// Measure runs one microbenchmark n times in one batch.  run must execute
// the operation under test once and return its latency in cycles.  Each
// reading carries the RDTSCP's +/- TSCAccuracy quantisation jitter, and
// runs hit by a simulated asynchronous exit are detected and discarded, as
// in Section 3.1.
func Measure(rng *RNG, n int, run func() uint64) Result {
	aex := NewAEXInjector(rng)
	sample := NewSample(n)
	discarded := 0
	for i := 0; i < n; i++ {
		cycles := run()
		cycles = uint64(int64(cycles) + int64(rng.Intn(2*TSCAccuracy+1)) - TSCAccuracy)
		if aex.Interrupted(cycles) {
			discarded++
			continue
		}
		sample.AddCycles(cycles)
	}
	return Result{Sample: sample, Discarded: discarded}
}
