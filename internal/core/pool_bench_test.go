package core

import (
	"runtime"
	"sync"
	"testing"
)

// poolBenchWindow is the async depth each benchmark requester keeps in
// flight.  One responder quantum drains the whole window, so the
// per-call scheduling handoff of the single-slot protocol is amortized
// across the batch — the Section 4.2 "merging several threads' queues"
// economics, and where the fabric's throughput comes from on any core
// count.
const poolBenchWindow = 64

// benchPoolWorkers drives total calls through the fabric from `workers`
// requester goroutines, each pipelining a full window.
func benchPoolWorkers(b *testing.B, p *CallPool, reqs []*Requester, total int) {
	var wg sync.WaitGroup
	per := total / len(reqs)
	extra := total - per*len(reqs)
	for w, r := range reqs {
		n := per
		if w == 0 {
			n += extra
		}
		wg.Add(1)
		go func(r *Requester, n int) {
			defer wg.Done()
			pending := make([]*PoolBatch, 0, poolBenchWindow)
			for i := 0; i < n; {
				for len(pending) < poolBenchWindow && i < n {
					pd, err := submitOne(r, 0, uint64(i))
					if err != nil {
						b.Error(err)
						return
					}
					pending = append(pending, pd)
					i++
				}
				for _, pd := range pending {
					if _, err := waitOne(pd); err != nil {
						b.Error(err)
						return
					}
				}
				pending = pending[:0]
			}
		}(r, n)
	}
	wg.Wait()
}

// BenchmarkPoolCall is the fabric side of the ISSUE's acceptance pair:
// GOMAXPROCS requesters, each on its own shard, windowed submission, the
// adaptive responder pool free to scale to GOMAXPROCS.  Compare ops/sec
// against BenchmarkSingleSlotFunnel (same worker count, same call table,
// one HotCall slot); the fabric must deliver >= 4x.  ReportAllocs pins
// the zero-allocation hot path.
func BenchmarkPoolCall(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	p := NewCallPool([]PoolFunc{func(_ int, d uint64) uint64 { return d }},
		PoolOptions{Shards: workers, SlotsPerShard: poolBenchWindow, Timeout: 1 << 20})
	p.Start()
	defer p.Stop()
	reqs := make([]*Requester, workers)
	for i := range reqs {
		reqs[i] = p.Requester()
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchPoolWorkers(b, p, reqs, b.N)
}

// BenchmarkSingleSlotFunnel funnels the same load — GOMAXPROCS worker
// goroutines, the same echo call — through the paper's one HotCall slot
// and its dedicated responder.  This is the baseline the >= 4x
// acceptance criterion is measured against.
func BenchmarkSingleSlotFunnel(b *testing.B) {
	var hc HotCall
	hc.Timeout = 1 << 20
	r := NewResponder(&hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) },
	})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		r.Run()
	}()
	defer func() { hc.Stop(); rwg.Wait() }()

	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N - per*workers
	for w := 0; w < workers; w++ {
		n := per
		if w == 0 {
			n += extra
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := hc.Call(0, uint64(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}
