package core

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"hotcalls/internal/flight"
)

// BenchmarkPoolWake prices the three ways a synchronous call can meet the
// responder's idle ladder: the responder awake on its hot rung (the
// HotCall proper), parked with the requester running the call inline
// (the default: no signal on the call's path), and parked with a signal
// forced before the wait (what every such call paid before the
// requester helped itself, kept as the reference the wake policy's
// threshold stands for).  Signal times the kick alone — the cost the
// policy measures — and SecondThread how long after it a second OS
// thread is actually running, until when requester and responder share
// one.  Every case times only the region named, per iteration, around an
// untimed "let the responder park and its thread go idle" wait, and
// reports the mean as ns/op and the median as p50-ns.  No gate reads
// these: they document a host cost.
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
		p := NewCallPool([]PoolFunc{fn}, testPool(1, 1))
		if !parked {
			p.policy.spin = 1 << 30
		}
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
	// signalled is the pre-inline call: post, wake the responder, wait
	// for it.
	signalled := func(p *CallPool, r *Requester, d uint64) (uint64, error) {
		s, fr, err := r.post(flight.Callsite{}, 0, d, nil)
		if err != nil {
			return 0, err
		}
		r.parked = false
		p.kick()
		err = r.await(s, fr)
		return s.ret, err
	}

	for _, tc := range []struct {
		name   string
		parked bool
		call   func(p *CallPool, r *Requester, d uint64) (uint64, error)
	}{
		{"Call/awake", false, func(_ *CallPool, r *Requester, d uint64) (uint64, error) { return r.Call(0, d) }},
		{"Call/parked-inline", true, func(_ *CallPool, r *Requester, d uint64) (uint64, error) { return r.Call(0, d) }},
		{"Call/parked-signal", true, signalled},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, r := newRig(b, tc.parked, echo)
			samples := make([]time.Duration, b.N)
			for i := range samples {
				if tc.parked {
					park(p)
				}
				t0 := time.Now()
				_, err := tc.call(p, r, uint64(i))
				samples[i] = time.Since(t0)
				if err != nil {
					b.Fatalf("call %d: %v", i, err)
				}
			}
			report(b, samples)
		})
	}

	// Signal: the kick alone, with nothing posted — sdk.Cond.Signal's
	// goready + wakep, one futex wake of the parked thread.
	b.Run("Signal", func(b *testing.B) {
		p, _ := newRig(b, true, echo)
		samples := make([]time.Duration, b.N)
		for i := range samples {
			park(p)
			t0 := time.Now()
			sent := p.kick()
			samples[i] = time.Since(t0)
			if !sent {
				b.Fatalf("iteration %d: a kick was still outstanding with the responder parked", i)
			}
			for p.kicked.Load() {
				runtime.Gosched() // until the responder has taken it
			}
		}
		report(b, samples)
	})

	// SecondThread: from the kick that wakes the responder until both
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
			s, fr, err := r.post(flight.Callsite{}, 0, uint64(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			r.parked = false
			p.kick()
			for s.state.Load() != slotDone {
				runtime.Gosched() // the wait's yield phase, counting its polls
				ticks.Add(1)
			}
			if err := r.await(s, fr); err != nil {
				b.Fatal(err)
			}
			samples[i] = both.Sub(t0)
		}
		report(b, samples)
	})
}
