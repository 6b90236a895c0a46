// Package sim provides the deterministic simulation kernel shared by all
// substrates: a virtual time-stamp counter, a seedable random number
// generator, latency statistics, and the batch-measurement harness used by
// the paper's methodology (Section 3.1: 10 batches of 20,000 runs, with
// asynchronous-exit contamination filtered out).
//
// Everything in this package is deterministic given a seed, so every table
// and figure regenerated by the benchmark harness is exactly reproducible.
// That holds across architectures too: a float product that feeds an add
// or subtract is rounded with an explicit float64(…), because the Go spec
// otherwise lets a compiler fuse x*y + z into one differently rounded
// instruction (arm64 and riscv64 do; amd64 does not).
package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64).  It is not safe for concurrent use; give each simulated
// hardware thread its own RNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.  Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value uniformly distributed in [0, n).  It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a value uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	// Inverse transform sampling; guard against log(0).
	u := r.Float64()
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	return -mean * ln(1-u)
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i].  It panics if weights is empty or sums to zero.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sim: Pick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// ln is a minimal natural logarithm good to ~1e-14, implemented here so the
// hot sampling path does not depend on math (and to keep the package's
// dependency surface tiny).  Input must be positive.
func ln(x float64) float64 {
	// Range-reduce to [1, 2) using frexp-style decomposition, then use
	// atanh-series: ln(m) = 2*atanh((m-1)/(m+1)).
	if x <= 0 {
		panic("sim: ln of non-positive value")
	}
	exp := 0
	for x >= 2 {
		x /= 2
		exp++
	}
	for x < 1 {
		x *= 2
		exp--
	}
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for k := 1; k < 60; k += 2 {
		sum += term / float64(k)
		term *= y2
		if term < 1e-20 && term > -1e-20 {
			break
		}
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(float64(exp)*ln2)
}
