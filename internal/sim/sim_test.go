package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between differently seeded streams", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestRNGUniform(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(100, 200)
		if v < 100 || v >= 200 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(50)
	}
	mean := sum / n
	if mean < 48 || mean > 52 {
		t.Fatalf("exponential mean %v, want ~50", mean)
	}
}

func TestRNGPickWeights(t *testing.T) {
	r := NewRNG(19)
	counts := make([]int, 3)
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 2, 3})]++
	}
	// Expect roughly 1/6, 2/6, 3/6.
	if f := float64(counts[0]) / n; f < 0.14 || f > 0.20 {
		t.Fatalf("weight-1 fraction %v, want ~1/6", f)
	}
	if f := float64(counts[2]) / n; f < 0.46 || f > 0.54 {
		t.Fatalf("weight-3 fraction %v, want ~1/2", f)
	}
}

func TestLnMatchesMath(t *testing.T) {
	for _, x := range []float64{0.001, 0.1, 0.5, 1, 1.5, 2, 2.718281828, 10, 1000, 1e9} {
		got := ln(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("ln(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLnProperty(t *testing.T) {
	// ln(a*b) == ln(a) + ln(b)
	f := func(a, b uint32) bool {
		x := float64(a%100000) + 0.5
		y := float64(b%100000) + 0.5
		return math.Abs(ln(x*y)-(ln(x)+ln(y))) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock should start at 0")
	}
	c.Advance(100)
	c.AdvanceF(22.7)
	if got := c.Now(); got != 123 {
		t.Fatalf("clock = %d, want 123 (22.7 rounds to 23)", got)
	}
	start := c.Now()
	c.Advance(7)
	if c.Since(start) != 7 {
		t.Fatalf("Since = %d, want 7", c.Since(start))
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	var c Clock
	c.AdvanceF(-1)
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	if s := Seconds(FrequencyHz); s != 1.0 {
		t.Fatalf("Seconds(FrequencyHz) = %v, want 1", s)
	}
	if c := Cycles(0.5); c != FrequencyHz/2 {
		t.Fatalf("Cycles(0.5) = %d", c)
	}
}

func TestSampleOrderStatistics(t *testing.T) {
	s := NewSample(5)
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.Add(v)
	}
	if got := s.Median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestSampleFractionBelow(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i * 100))
	}
	if got := s.FractionBelow(500); got != 0.5 {
		t.Fatalf("FractionBelow(500) = %v, want 0.5", got)
	}
	if got := s.FractionBelow(50); got != 0 {
		t.Fatalf("FractionBelow(50) = %v, want 0", got)
	}
	if got := s.FractionBelow(10000); got != 1 {
		t.Fatalf("FractionBelow(10000) = %v, want 1", got)
	}
}

func TestSampleCDFMonotone(t *testing.T) {
	r := NewRNG(23)
	s := NewSample(1000)
	for i := 0; i < 1000; i++ {
		s.Add(r.Uniform(0, 10000))
	}
	cdf := s.CDF(100)
	if len(cdf) != 100 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v vs %+v", i, cdf[i-1], cdf[i])
		}
	}
	if cdf[len(cdf)-1].Fraction != 1.0 {
		t.Fatalf("CDF should end at fraction 1, got %v", cdf[len(cdf)-1].Fraction)
	}
}

func TestSamplePercentileProperty(t *testing.T) {
	// Percentile must be monotone in p and bounded by min/max.
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		count := int(n%50) + 2
		s := NewSample(count)
		lo, hi := 1e6, 0.0
		for i := 0; i < count; i++ {
			v := r.Uniform(0, 1e6)
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		last := lo
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < last-1e-9 || v > hi+1e-9 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleMedianMatchesSort(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := NewSample(len(clean))
		for _, v := range clean {
			s.Add(v)
		}
		med := s.Median()
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		// Median must lie between the two middle elements.
		lo := sorted[(len(sorted)-1)/2]
		hi := sorted[len(sorted)/2]
		return med >= lo-1e-9 && med <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptySampleReturnsZero(t *testing.T) {
	// Order statistics of an empty sample are the documented zero value,
	// not a panic: live telemetry snapshots may render before the first
	// observation arrives.
	var s Sample
	if got := s.Median(); got != 0 {
		t.Fatalf("empty median = %v, want 0", got)
	}
	if got := s.Percentile(99.9); got != 0 {
		t.Fatalf("empty p99.9 = %v, want 0", got)
	}
}

func TestSingleElementSample(t *testing.T) {
	var s Sample
	s.Add(620)
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := s.Percentile(p); got != 620 {
			t.Fatalf("single-element p%v = %v, want 620", p, got)
		}
	}
	if s.Median() != 620 {
		t.Fatal("single-element order statistics must all return the element")
	}
}

func TestPercentileOutOfRangeStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p out of [0, 100]")
		}
	}()
	var s Sample
	s.Add(1)
	s.Percentile(101)
}

func TestMeasureMethodology(t *testing.T) {
	rng := NewRNG(31)
	const runs = 200000
	res := Measure(rng, runs, func() uint64 { return 10000 })
	total := res.Sample.Len() + res.Discarded
	if total != runs {
		t.Fatalf("total runs = %d, want %d", total, runs)
	}
	// Paper observed ~200-300 AEX events out of 200,000 at ~10k-cycle
	// experiments; accept a generous band.
	if res.Discarded < 100 || res.Discarded > 600 {
		t.Fatalf("discarded = %d, want ~200-300", res.Discarded)
	}
	med := res.Sample.Median()
	if med < 10000-TSCAccuracy || med > 10000+TSCAccuracy {
		t.Fatalf("median = %v, want ~10000", med)
	}
}

func TestMeasureNoContaminationForShortRuns(t *testing.T) {
	rng := NewRNG(37)
	res := Measure(rng, 10000, func() uint64 { return 100 })
	// 100-cycle experiments are hit ~0.00125% of the time.
	if res.Discarded > 5 {
		t.Fatalf("discarded = %d for tiny experiments", res.Discarded)
	}
}

func TestAEXInjectorRate(t *testing.T) {
	rng := NewRNG(41)
	inj := NewAEXInjector(rng)
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if inj.Interrupted(10000) {
			hits++
		}
	}
	if inj.Hits() != hits {
		t.Fatalf("Hits() = %d, counted %d", inj.Hits(), hits)
	}
	// Expected: 10000 * 500 / 4e9 = 1.25e-6 per run -> 250 out of 200k.
	if hits < 150 || hits > 400 {
		t.Fatalf("AEX hits = %d, want ~250", hits)
	}
}
