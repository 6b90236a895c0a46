package bench

// The scaling experiment measures the HotCalls fabric (internal/core
// CallPool) with real goroutines and wall-clock time — not the simulated
// platform: the throughput curve over requester and responder counts,
// normalized against the pre-fabric single-slot protocol, plus the
// fabric-routed memcached and lighttpd request paths.  Every gated value
// is a same-run ratio ("x"), so the artifact survives host speed
// differences; the absolute ops/s columns in the table are informational.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/flight"
)

// scalingWindow is the async depth each requester pipelines, matching
// the fabric's default shard ring.
const scalingWindow = 64

// Call budgets per measured point: large enough that scheduler warmup
// and timer resolution vanish into the noise floor, small enough that
// the whole curve runs in about a second.
const (
	scalingSingleCalls = 100_000
	scalingPoolCalls   = 400_000
	scalingAppSync     = 30_000
	scalingAppWindowed = 120_000
)

// measureSingleSlot funnels calls from `workers` goroutines through one
// HotCall slot and returns ops/second — the pre-fabric baseline.
func measureSingleSlot(workers, calls int) float64 {
	var hc core.HotCall
	hc.Timeout = 1 << 20
	var cs flight.Callsite
	if flightRec != nil {
		hc.SetFlight(flightRec)
		cs = flightRec.Callsite("bench.hotcall")
	}
	r := core.NewResponder(&hc, []func(interface{}) uint64{
		func(d interface{}) uint64 { return d.(uint64) },
	})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		r.Run()
	}()
	defer func() { hc.Stop(); rwg.Wait() }()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := calls / workers
		if w == 0 {
			n += calls - (calls/workers)*workers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := hc.CallAt(cs, 0, uint64(i)); err != nil {
					panic(err)
				}
			}
		}(n)
	}
	wg.Wait()
	return float64(calls) / time.Since(start).Seconds()
}

// measurePool drives windowed traffic from `requesters` shards through a
// fabric whose responder pool is pinned at `responders`, and returns
// ops/second.
func measurePool(requesters, responders, calls int) float64 {
	return measurePoolRec(requesters, responders, calls, flightRec)
}

// measurePoolRec is measurePool with an explicit flight recorder — nil
// runs bare.  The flight-overhead experiment alternates the two
// configurations in one process so the ratio survives host noise.
func measurePoolRec(requesters, responders, calls int, rec *flight.Recorder) float64 {
	p := core.NewCallPool(
		[]core.PoolFunc{func(_ int, d uint64) uint64 { return d }},
		core.PoolOptions{
			Shards:        requesters,
			SlotsPerShard: scalingWindow,
			MinResponders: responders,
			MaxResponders: responders,
			Timeout:       1 << 20,
		})
	var cs flight.Callsite
	if rec != nil {
		p.SetFlight(rec)
		cs = rec.Callsite("bench.pool")
	}
	p.Start()
	defer p.Stop()

	reqs := make([]*core.Requester, requesters)
	for i := range reqs {
		reqs[i] = p.Requester()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w, r := range reqs {
		n := calls / requesters
		if w == 0 {
			n += calls - (calls/requesters)*requesters
		}
		wg.Add(1)
		go func(r *core.Requester, n int) {
			defer wg.Done()
			pending := make([]*core.PoolPending, 0, scalingWindow)
			for i := 0; i < n; {
				for len(pending) < scalingWindow && i < n {
					pd, err := r.SubmitAt(cs, 0, uint64(i))
					if err != nil {
						panic(err)
					}
					pending = append(pending, pd)
					i++
				}
				for _, pd := range pending {
					if _, err := pd.Wait(); err != nil {
						panic(err)
					}
				}
				pending = pending[:0]
			}
		}(r, n)
	}
	wg.Wait()
	return float64(calls) / time.Since(start).Seconds()
}

// measureMemcachedFabric returns the fabric-routed memcached request
// rate, synchronous and windowed, in requests/second.
func measureMemcachedFabric() (syncRate, windowedRate float64) {
	s := memcached.NewPoolServer(1, core.PoolOptions{Timeout: 1 << 20})
	s.Arm(porting.Observers{Flight: flightRec}) // nil leaves the recorder off
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	val := make([]byte, memcached.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	req := func(i int) *memcached.Request {
		if i%2 == 0 {
			return &memcached.Request{Op: memcached.OpSet, Key: "scaling-key", Value: val}
		}
		return &memcached.Request{Op: memcached.OpGet, Key: "scaling-key"}
	}

	start := time.Now()
	for i := 0; i < scalingAppSync; i++ {
		if _, err := c.Do(req(i)); err != nil {
			panic(err)
		}
	}
	syncRate = float64(scalingAppSync) / time.Since(start).Seconds()

	start = time.Now()
	pending := make([]memcached.PendingResponse, 0, 16)
	for i := 0; i < scalingAppWindowed; {
		for len(pending) < cap(pending) && i < scalingAppWindowed {
			pr, err := c.Submit(req(i))
			if err != nil {
				panic(err)
			}
			pending = append(pending, pr)
			i++
		}
		for _, pr := range pending {
			if _, err := pr.Wait(); err != nil {
				panic(err)
			}
		}
		pending = pending[:0]
	}
	windowedRate = float64(scalingAppWindowed) / time.Since(start).Seconds()
	return syncRate, windowedRate
}

// measureLighttpdFabric returns the fabric-routed lighttpd request rate,
// synchronous and windowed, in requests/second.
func measureLighttpdFabric() (syncRate, windowedRate float64) {
	s := lighttpd.NewPoolServer(1, core.PoolOptions{Timeout: 1 << 20})
	s.Arm(porting.Observers{Flight: flightRec}) // nil leaves the recorder off
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	const raw = "GET /index.html HTTP/1.0\r\nHost: bench\r\n\r\n"

	start := time.Now()
	for i := 0; i < scalingAppSync; i++ {
		if _, err := c.Do(raw); err != nil {
			panic(err)
		}
	}
	syncRate = float64(scalingAppSync) / time.Since(start).Seconds()

	start = time.Now()
	pending := make([]lighttpd.PendingResponse, 0, 16)
	for i := 0; i < scalingAppWindowed; {
		for len(pending) < cap(pending) && i < scalingAppWindowed {
			pr, err := c.Submit(raw)
			if err != nil {
				panic(err)
			}
			pending = append(pending, pr)
			i++
		}
		for _, pr := range pending {
			if _, err := pr.Wait(); err != nil {
				panic(err)
			}
		}
		pending = pending[:0]
	}
	windowedRate = float64(scalingAppWindowed) / time.Since(start).Seconds()
	return syncRate, windowedRate
}

// scalingRequesterCounts picks the requester axis: 1, 2, 4 and
// GOMAXPROCS, deduplicated and sorted.  Counts above GOMAXPROCS are
// still meaningful — shards are goroutines, and oversubscription is
// exactly how the fabric will run under real traffic.
func scalingRequesterCounts() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	seen := map[int]bool{}
	var out []int
	for _, n := range []int{1, 2, 4, maxProcs} {
		if n >= 1 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// runScaling regenerates the fabric scaling curve.
func runScaling() *Report {
	r := &Report{ID: "scaling", Title: "HotCalls fabric throughput scaling (real goroutines, wall clock)"}
	maxProcs := runtime.GOMAXPROCS(0)
	responders := []int{1}
	if maxProcs > 1 {
		responders = append(responders, maxProcs)
	}

	base := measureSingleSlot(maxProcs, scalingSingleCalls)

	tbl := &table{header: []string{"configuration", "Mops/s", "vs single slot"}}
	tbl.add(fmt.Sprintf("single HotCall slot, %d requesters (baseline)", maxProcs),
		f2(base/1e6), "1.00x")

	for _, nr := range scalingRequesterCounts() {
		for _, resp := range responders {
			rate := measurePool(nr, resp, scalingPoolCalls)
			speedup := rate / base
			name := fmt.Sprintf("pool %drx%dw vs single slot", nr, resp)
			tbl.add(fmt.Sprintf("fabric, %d requesters x %d responders, window %d", nr, resp, scalingWindow),
				f2(rate/1e6), f2(speedup)+"x")
			r.Values = append(r.Values, Value{Name: name, Got: speedup, Unit: "x"})
		}
	}

	mcSync, mcWin := measureMemcachedFabric()
	ltSync, ltWin := measureLighttpdFabric()
	tbl.add("memcached fabric route, synchronous", f2(mcSync/1e6), "-")
	tbl.add("memcached fabric route, windowed", f2(mcWin/1e6), f2(mcWin/mcSync)+"x sync")
	tbl.add("lighttpd fabric route, synchronous", f2(ltSync/1e6), "-")
	tbl.add("lighttpd fabric route, windowed", f2(ltWin/1e6), f2(ltWin/ltSync)+"x sync")
	r.Values = append(r.Values,
		Value{Name: "memcached windowed vs sync", Got: mcWin / mcSync, Unit: "x"},
		Value{Name: "lighttpd windowed vs sync", Got: ltWin / ltSync, Unit: "x"},
	)

	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "scaling", Title: "Fabric throughput scaling", Run: runScaling})
}
