package main

import (
	"fmt"
	"time"
)

// probeBatch is how many calls one timed sample of a probe covers; a
// probe reports the median of its per-call sample costs.
const probeBatch = 256

// probe times fn in batches of probeBatch for d and returns the median
// cost of one call in ns and the number of samples behind it.  prep, when
// non-nil, runs untimed before each batch.
func probe(d time.Duration, prep func(), fn func(j int) error) (ns float64, samples int, err error) {
	var costs []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(costs) < 3; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for j := 0; j < probeBatch; j++ {
			if err := fn(j); err != nil {
				return 0, 0, err
			}
		}
		costs = append(costs, float64(time.Since(t0))/probeBatch)
	}
	return median(costs), len(costs), nil
}

// probeSink keeps the codec results alive so the compiler cannot drop the
// calls being timed.
var probeSink struct {
	n    int
	resp *kvResponse
}

// probeResult is one single-layer probe's outcome.
type probeResult struct {
	name    string
	ns      float64
	samples int
}

// runProbes times each layer alone, from outside, splitting total evenly.
// The probes do not depend on the workload, so every traced run reports
// all of them.
func runProbes(seed uint64, total time.Duration) ([]probeResult, error) {
	const probes = 8
	var out []probeResult
	var firstErr error
	// add runs one probe unless an earlier one failed, and always stops
	// the target it was given.
	add := func(name string, scale float64, stop, prep func(), fn func(j int) error) {
		if firstErr == nil {
			ns, n, err := probe(total/probes, prep, fn)
			if err != nil {
				firstErr = fmt.Errorf("probe %s: %w", name, err)
			}
			out = append(out, probeResult{name, ns * scale, n})
		}
		if stop != nil {
			stop()
		}
	}

	call, stop := newBarePool()
	add("core.call_ns", 1, stop, nil, func(int) error { return call() })
	hot, stop := newHotCall()
	add("core.hotcall_ns", 1, stop, nil, func(int) error { return hot() })
	window, stop := newVecPool(windowSize)
	add("core.submitv_ns_per_call", 1.0/windowSize, stop, nil, func(int) error { return window() })

	// The memcached codec over the kv workloads' own requests, and over
	// the responses a server would send for them.
	g := newKVGen(seed, 1, nil, nil)
	defer g.stop()
	buf := make([]byte, kvHeaderSize+64+kvValueSize)
	add("memcached.encode_ns", 1, nil, nil, func(j int) error {
		g.fill(g.ops[j], uint32(j))
		n, err := kvEncodeRequest(buf, &g.req)
		probeSink.n = n
		return err
	})
	resps := make([][]byte, probeBatch)
	for j := range resps {
		r := kvResponse{Op: kvOpSet, Opaque: uint32(j)}
		if op := g.ops[j]; op&kvSetBit == 0 {
			r.Op, r.Value = kvOpGet, g.vals[op>>16&(kvValues-1)]
		}
		resps[j] = make([]byte, kvHeaderSize+len(r.Value))
		if _, err := kvEncodeResponse(resps[j], &r); err != nil {
			return nil, fmt.Errorf("probe memcached.decode_ns: %w", err)
		}
	}
	add("memcached.decode_ns", 1, nil, nil, func(j int) error {
		r, err := kvDecodeResponse(resps[j])
		probeSink.resp = r
		return err
	})

	add("lighttpd.parse_ns", 1, nil, nil, func(int) error { return webParseRequest(webGet) })

	// Open enforces the replay window, so every timed Open needs a frame
	// with a fresh packet ID: a batch is sealed untimed, then opened.
	seal, open := vpnCipherPair()
	payload := seededBytes(seed, vpnPayload)
	frames := make([][]byte, probeBatch)
	for j := range frames {
		frames[j] = make([]byte, vpnOverhead+vpnPayload)
	}
	plain := make([]byte, vpnPayload)
	add("openvpn.seal_ns", 1, nil, nil, func(j int) error { seal(frames[j], payload); return nil })
	reseal := func() {
		for j := range frames {
			seal(frames[j], payload)
		}
	}
	add("openvpn.open_ns", 1, nil, reseal, func(j int) error {
		_, err := open(plain, frames[j])
		return err
	})
	return out, firstErr
}
