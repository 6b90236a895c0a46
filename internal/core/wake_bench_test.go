package core

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"hotcalls/internal/flight"
)

// BenchmarkPoolWake prices the wake path of the responder's idle ladder:
// what a requester pays to post to a parked responder (sleepers != 0, so
// post signals the condition variable: goready + wakep, one futex wake
// on the requester's own critical path), what a whole synchronous Call
// costs then, and how long after the wake a second OS thread is
// actually running — until when requester and responder share one.
// The /spinning cases hold the responder on the hot rung of the ladder
// and are the same code with no wake in it.  Every case times only the
// region named, per iteration, around an untimed "let the responder
// park and its thread go idle" wait, and reports the mean as ns/op and
// the median as p50-ns.  No gate reads these: they document a host cost.
func BenchmarkPoolWake(b *testing.B) {
	// settle is how long the requester idles after the responder has
	// published itself as a sleeper, so that its thread has given up
	// looking for work and parked in the kernel — the state an open-loop
	// arrival 50 µs after the last one finds.
	const settle = 50 * time.Microsecond

	// newRig builds a one-requester, one-responder pool; parked selects
	// the default ladder (the responder sleeps when idle), otherwise the
	// responder never leaves the hot rung.
	newRig := func(b *testing.B, parked bool, fn PoolFunc) (*CallPool, *Requester) {
		opts := PoolOptions{Shards: 1, SlotsPerShard: 16, MinResponders: 1, MaxResponders: 1, Timeout: 1 << 20}
		if !parked {
			opts.SpinPasses = 1 << 30
		}
		p := NewCallPool([]PoolFunc{fn}, opts)
		p.Start()
		b.Cleanup(p.Stop)
		return p, p.Requester()
	}
	park := func(p *CallPool) {
		for p.sleepers.Load() == 0 {
			runtime.Gosched()
		}
		for t0 := time.Now(); time.Since(t0) < settle; {
			cpuRelax()
		}
	}
	report := func(b *testing.B, samples []time.Duration) {
		var sum time.Duration
		for _, d := range samples {
			sum += d
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		b.ReportMetric(float64(sum.Nanoseconds())/float64(len(samples)), "ns/op")
		b.ReportMetric(float64(samples[len(samples)/2].Nanoseconds()), "p50-ns")
	}
	echo := func(_ int, d uint64) uint64 { return d }

	for _, parked := range []bool{true, false} {
		state := "spinning"
		if parked {
			state = "parked"
		}
		// Post: the submit half alone — with a sleeper it contains the
		// Signal, and the difference between the two cases is its cost.
		b.Run("Post/"+state, func(b *testing.B) {
			p, r := newRig(b, parked, echo)
			samples := make([]time.Duration, b.N)
			for i := range samples {
				if parked {
					park(p)
				}
				t0 := time.Now()
				s, fr, err := r.post(flight.Callsite{}, 0, uint64(i))
				samples[i] = time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if r.woke != parked {
					b.Fatalf("iteration %d: post signalled = %v with the responder %s", i, r.woke, state)
				}
				if err := r.await(s, fr, r.woke); err != nil {
					b.Fatal(err)
				}
			}
			report(b, samples)
		})
		// Call: the whole synchronous round trip.
		b.Run("Call/"+state, func(b *testing.B) {
			p, r := newRig(b, parked, echo)
			samples := make([]time.Duration, b.N)
			for i := range samples {
				if parked {
					park(p)
				}
				t0 := time.Now()
				ret, err := r.Call(0, uint64(i))
				samples[i] = time.Since(t0)
				if err != nil || ret != uint64(i) {
					b.Fatalf("Call(%d) = (%d, %v)", i, ret, err)
				}
			}
			report(b, samples)
		})
	}

	// SecondThread: from the post that wakes the responder until both
	// goroutines run at once.  The handler does not return, and does
	// not yield, until it sees the requester's wait loop make progress,
	// which — the handler holding its thread — only a second thread can
	// give it.
	b.Run("SecondThread", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs two Ps")
		}
		var ticks atomic.Uint64
		var both time.Time
		p, r := newRig(b, true, func(_ int, d uint64) uint64 {
			for seen := ticks.Load(); ticks.Load() == seen; {
				cpuRelax()
			}
			both = time.Now()
			return d
		})
		samples := make([]time.Duration, b.N)
		for i := range samples {
			park(p)
			t0 := time.Now()
			s, fr, err := r.post(flight.Callsite{}, 0, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			for s.state.Load() != slotDone {
				runtime.Gosched() // the wait's yield phase, counting its polls
				ticks.Add(1)
			}
			if err := r.await(s, fr, true); err != nil {
				b.Fatal(err)
			}
			samples[i] = both.Sub(t0)
		}
		report(b, samples)
	})
}
