package sim

// Frequency of the simulated core, matching the paper's testbed (Intel Core
// i7-6700K at 4 GHz with DVFS disabled).
const FrequencyHz = 4_000_000_000

// Clock is the virtual time-stamp counter of one simulated hardware thread.
// All simulated latencies are expressed in clock cycles; the benchmark
// harness converts to wall-clock time at FrequencyHz when a table or figure
// reports seconds.
//
// The zero value is a clock at cycle zero, ready to use.
type Clock struct {
	cycles uint64
}

// Now returns the current cycle count, the simulated equivalent of RDTSCP.
func (c *Clock) Now() uint64 { return c.cycles }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// AdvanceF moves the clock forward by a fractional cycle cost, rounding to
// the nearest whole cycle.  Substrate cost models accumulate per-cache-line
// fractions (for example 22.7 cycles per prefetched line), so the clock
// accepts float costs at the boundary.
func (c *Clock) AdvanceF(n float64) {
	if n < 0 {
		panic("sim: negative clock advance")
	}
	c.cycles += uint64(n + 0.5)
}

// Since returns the number of cycles elapsed since the given earlier
// reading.
func (c *Clock) Since(start uint64) uint64 { return c.cycles - start }

// Seconds converts a cycle count to seconds at the simulated core
// frequency.
func Seconds(cycles uint64) float64 {
	return float64(cycles) / FrequencyHz
}

// Cycles converts a duration in seconds to cycles at the simulated core
// frequency.
func Cycles(seconds float64) uint64 {
	return uint64(float64(seconds * FrequencyHz))
}
