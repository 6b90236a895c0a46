package bench

import "hotcalls/internal/sim"

// benchSeed is the user-selectable base seed every experiment derives its
// per-fixture stream seeds from.  The default base (sim.DefaultSeed)
// makes seedFor return each salt unchanged, so default runs reproduce the
// committed baseline artifacts byte for byte; any other base decorrelates
// every stream deterministically (see sim.SeedMix).
var benchSeed = sim.DefaultSeed

// SetSeed selects the base seed for subsequent experiment runs (the
// hotbench -seed flag).  Not safe to call concurrently with a
// running experiment.
func SetSeed(s uint64) { benchSeed = s }

// Seed returns the current base seed.
func Seed() uint64 { return benchSeed }

// seedFor derives the seed of one fixture or RNG stream from the base
// seed and the stream's fixed salt.
func seedFor(salt uint64) uint64 { return sim.SeedMix(benchSeed, salt) }
