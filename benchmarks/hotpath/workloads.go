package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"
)

// workload is one named traffic mix.  BENCHMARK.json carries the name and
// the reason it exists; the parameters live here.
type workload struct {
	name           string
	rate           float64 // open-loop arrivals per second; 0 means closed loop
	sloUs          float64 // latency limit behind within_slo_share, per recorded latency
	latPerOp       bool    // record a unit's latency divided by its requests
	unitsPerSecCap int     // sizes the latency array; a run ends early when it fills
	warmUnits      int     // fixed-count warm-up that is part of set-up
	build          func(seed uint64) instance
}

// instance is a workload bound to a freshly built server and to inputs
// generated from one seed.
type instance interface {
	unit
	start() error // boot the server and load what the requests expect to find
	stop()
	fabric() *fabric // nil when the workload has no CallPool
}

// windowSize is the pipelining depth of kv_pipelined and vpn_stream; it
// stays below the pool's default 64-slot ring.
const windowSize = 16

var workloads = []*workload{
	{name: "kv_sync", sloUs: 100, unitsPerSecCap: 1_500_000, warmUnits: 50000,
		build: func(seed uint64) instance { s := newKVServer(); return newKVGen(seed, 1, s, &s.fabric) }},
	{name: "kv_pipelined", sloUs: 200, unitsPerSecCap: 400_000, warmUnits: 5000,
		build: func(seed uint64) instance { s := newKVServer(); return newKVGen(seed, windowSize, s, &s.fabric) }},
	{name: "web_paced", rate: 20000, sloUs: 100, unitsPerSecCap: 25000, warmUnits: 30000,
		build: func(seed uint64) instance { return &webGen{srv: newWebServer()} }},
	{name: "vpn_stream", sloUs: 1000, unitsPerSecCap: 50000, warmUnits: 500,
		build: func(seed uint64) instance { return newVPNGen(seed, newVPNServer()) }},
	{name: "sim_apps", sloUs: 100, latPerOp: true, unitsPerSecCap: 100, warmUnits: 1,
		build: func(seed uint64) instance { return &simGen{seed: seed} }},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func now(base time.Time) int64 { return int64(time.Since(base)) }

// ---- kv_sync and kv_pipelined ----

const (
	kvKeys    = 4096
	kvValues  = 64      // distinct seeded values SETs draw from
	kvOps     = 1 << 20 // length of the pre-generated op stream (a power of two)
	kvSetBit  = 1 << 31
	kvSetPct  = 10
	kvKeyMask = 1<<16 - 1
)

// kvTarget is the memcached connection surface the generator drives; the
// self-tests substitute a stub.
type kvTarget interface {
	Start()
	Stop()
	Do(*kvRequest) (*kvResponse, error)
	Submit(*kvRequest) (kvPending, error)
	Wait(kvPending) (*kvResponse, error)
}

// kvGen issues 90 % GET / 10 % SET over kvKeys seeded keys and checks
// every GET against its own record of the last value SET under that key.
type kvGen struct {
	srv    kvTarget
	fab    *fabric
	window int
	keys   []string
	vals   [][]byte
	ops    []uint32 // key | value<<16 | kvSetBit; off-heap
	free   func()   // returns ops
	shadow []uint16 // per key: index into vals of the last SET
	req    kvRequest
	pend   [windowSize]kvPending
}

func newKVGen(seed uint64, window int, srv kvTarget, fab *fabric) *kvGen {
	rng := rand.New(rand.NewPCG(seed, 1))
	g := &kvGen{srv: srv, fab: fab, window: window,
		keys: make([]string, kvKeys), vals: make([][]byte, kvValues), shadow: make([]uint16, kvKeys)}
	g.ops, g.free = offHeap[uint32](kvOps)
	g.ops = g.ops[:kvOps]
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("key-%016x-%04d", rng.Uint64(), i)
	}
	for i := range g.vals {
		g.vals[i] = seededBytes(rng.Uint64(), kvValueSize)
	}
	// Keys are distinct within each aligned window of windowSize ops:
	// responders may execute one window's calls out of order, so a SET
	// and a GET of one key in flight together would have no defined
	// answer to check.
	var used [windowSize]uint32
	for i := range g.ops {
		j := i % windowSize
		var key uint32
	redraw:
		key = rng.Uint32N(kvKeys)
		for _, u := range used[:j] {
			if u == key {
				goto redraw
			}
		}
		used[j] = key
		op := key | rng.Uint32N(kvValues)<<16
		if rng.Uint32N(100) < kvSetPct {
			op |= kvSetBit
		}
		g.ops[i] = op
	}
	return g
}

func (g *kvGen) fabric() *fabric { return g.fab }

// stop shuts the server down and releases the op stream; the generator
// is dead afterwards.
func (g *kvGen) stop() {
	if g.srv != nil {
		g.srv.Stop()
	}
	g.free()
}

// start boots the server and SETs every key once, so no GET misses.
func (g *kvGen) start() error {
	g.srv.Start()
	for k := range g.keys {
		g.shadow[k] = uint16(k % kvValues)
		g.fill(uint32(k)|uint32(g.shadow[k])<<16|kvSetBit, uint32(k))
		resp, err := g.srv.Do(&g.req)
		if err != nil || resp.Status != kvStatusOK {
			return fmt.Errorf("prefill key %d: status %v, error %v", k, resp, err)
		}
	}
	return nil
}

// fill points the reusable request at op's inputs.
func (g *kvGen) fill(op, opaque uint32) {
	g.req.Key, g.req.Opaque = g.keys[op&kvKeyMask], opaque
	if op&kvSetBit != 0 {
		g.req.Op, g.req.Value = kvOpSet, g.vals[op>>16&(kvValues-1)]
	} else {
		g.req.Op, g.req.Value = kvOpGet, nil
	}
}

// check verifies one response against the shadow and returns the payload
// bytes it carried, or ok=false.
func (g *kvGen) check(op, opaque uint32, resp *kvResponse, err error) (n uint32, ok bool) {
	if err != nil || resp.Status != kvStatusOK || resp.Opaque != opaque {
		return 0, false
	}
	key := op & kvKeyMask
	if op&kvSetBit != 0 {
		g.shadow[key] = uint16(op >> 16 & (kvValues - 1))
		return kvValueSize, resp.Op == kvOpSet
	}
	return kvValueSize, resp.Op == kvOpGet && bytes.Equal(resp.Value, g.vals[g.shadow[key]])
}

func (g *kvGen) step(i int, tr *tracer, root int32, base time.Time) stepResult {
	res := stepResult{attempted: uint32(g.window)}
	book := func(op, opaque uint32, resp *kvResponse, err error) {
		if n, ok := g.check(op, opaque, resp, err); ok {
			res.bytes += n
		} else {
			res.failed++
			if isTimeout(err) {
				res.timeouts++
			}
		}
	}
	if g.window == 1 && tr == nil {
		op := g.ops[i&(kvOps-1)]
		g.fill(op, uint32(i))
		resp, err := g.srv.Do(&g.req)
		book(op, uint32(i), resp, err)
		return res
	}
	// Submit the whole window, then collect it oldest first.  A failed
	// submit is booked at once and leaves a hole in pend.
	var posted [windowSize]bool
	for j := 0; j < g.window; j++ {
		at := i*g.window + j
		op := g.ops[at&(kvOps-1)]
		g.fill(op, uint32(at))
		t0 := tr.begin(base)
		p, err := g.srv.Submit(&g.req)
		tr.end(spanSubmit, root, uint32(i), t0, base)
		if err != nil {
			book(op, uint32(at), nil, err)
			continue
		}
		g.pend[j], posted[j] = p, true
	}
	for j := 0; j < g.window; j++ {
		if !posted[j] {
			continue
		}
		at := i*g.window + j
		t0 := tr.begin(base)
		resp, err := g.srv.Wait(g.pend[j])
		tr.end(spanWait, root, uint32(i), t0, base)
		book(g.ops[at&(kvOps-1)], uint32(at), resp, err)
	}
	return res
}

// ---- web_paced ----

const webGet = "GET /index.html HTTP/1.0\r\nHost: bench\r\n\r\n"

// webGen fetches /index.html and checks status and body length against
// the served document.
type webGen struct{ srv *webServer }

func (g *webGen) fabric() *fabric { return &g.srv.fabric }
func (g *webGen) start() error    { g.srv.Start(); return nil }
func (g *webGen) stop()           { g.srv.Stop() }

var (
	webStatusOK = []byte("HTTP/1.0 200 OK\r\n")
	webHeadEnd  = []byte("\r\n\r\n")
)

// webCheck verifies a response of total bytes whose first packet is head:
// status 200 and a body as long as the served document.
func webCheck(head []byte, total int) bool {
	i := bytes.Index(head, webHeadEnd)
	return bytes.HasPrefix(head, webStatusOK) && i >= 0 && total-i-len(webHeadEnd) == webPageSize
}

func (g *webGen) step(i int, tr *tracer, root int32, base time.Time) stepResult {
	var resp []byte
	var err error
	if tr == nil {
		resp, err = g.srv.Do(webGet)
	} else {
		t0 := now(base)
		var p webPending
		p, err = g.srv.Submit(webGet)
		t1 := now(base)
		tr.add(spanSubmit, root, uint32(i), t0, t1)
		if err == nil {
			resp, err = g.srv.Wait(p)
			tr.add(spanWait, root, uint32(i), t1, now(base))
		}
	}
	if err != nil || !webCheck(resp, len(resp)) {
		res := stepResult{attempted: 1, failed: 1}
		if isTimeout(err) {
			res.timeouts = 1
		}
		return res
	}
	return stepResult{attempted: 1, bytes: webPageSize}
}

// ---- vpn_stream ----

const (
	vpnPayloads = 64  // distinct seeded 1400-byte payloads
	vpnWindows  = 256 // pre-built windows the run cycles through
)

// vpnGen streams pre-built windows of seeded payloads.  Stream seals each
// payload, relays the window through the fabric zero-copy, and
// MAC-verifies and byte-compares every output frame.
type vpnGen struct {
	srv  *vpnServer
	wins [][][]byte
}

func newVPNGen(seed uint64, srv *vpnServer) *vpnGen {
	rng := rand.New(rand.NewPCG(seed, 3))
	g := &vpnGen{srv: srv, wins: make([][][]byte, vpnWindows)}
	payloads := make([][]byte, vpnPayloads)
	for i := range payloads {
		payloads[i] = seededBytes(rng.Uint64(), vpnPayload)
	}
	for w := range g.wins {
		g.wins[w] = make([][]byte, windowSize)
		for j := range g.wins[w] {
			g.wins[w][j] = payloads[rng.IntN(vpnPayloads)]
		}
	}
	return g
}

func (g *vpnGen) fabric() *fabric { return &g.srv.fabric }
func (g *vpnGen) start() error    { g.srv.Start(); return nil }
func (g *vpnGen) stop()           { g.srv.Stop() }

func (g *vpnGen) step(i int, tr *tracer, root int32, base time.Time) stepResult {
	t0 := tr.begin(base)
	n, err := g.srv.Stream(g.wins[i%vpnWindows])
	tr.end(spanStream, root, uint32(i), t0, base)
	res := stepResult{attempted: windowSize}
	if err != nil {
		// Stream reports the first bad frame only; charge the window.
		res.failed = windowSize
		if isTimeout(err) {
			res.timeouts = uint32(windowSize - n)
		}
		return res
	}
	res.failed = uint32(windowSize - n)
	res.bytes = uint32(n * vpnPayload)
	return res
}

// ---- sim_apps ----

// simGen runs the six app x mode cells of the simulated platform; one
// unit is one sweep over all of them, each on a freshly booted server as
// in REPORT.md's Figure 10 run.  Simulated statistics must repeat exactly
// from sweep to sweep; drift counts the sweeps where they did not.
type simGen struct {
	seed    uint64
	profile bool
	cells   []simResult           // first sweep, in simCells order
	hostNs  [len(simCells)]int64  // host time per cell, all sweeps
	reqs    [len(simCells)]uint64 // simulated requests per cell, all sweeps
	sweeps  int
	drift   int
}

func (g *simGen) fabric() *fabric { return nil }
func (g *simGen) stop()           {}

// start boots every cell's server once: what a user waits for before
// the first simulated request.
func (g *simGen) start() error {
	for _, id := range simCells {
		bootSimCell(id, g.seed)
	}
	return nil
}

func (g *simGen) step(i int, tr *tracer, root int32, base time.Time) stepResult {
	var res stepResult
	for c, id := range simCells {
		t0 := now(base)
		cell := bootSimCell(id, g.seed).run(g.profile)
		t1 := now(base)
		if tr != nil {
			tr.add(spanCell, root, uint32(i), t0, t1)
		}
		g.hostNs[c] += t1 - t0
		g.reqs[c] += cell.requests
		res.attempted += uint32(cell.requests)
		res.failed += uint32(cell.failed)
		res.bytes += uint32(cell.bytes)
		if g.sweeps == 0 {
			g.cells = append(g.cells, cell)
		} else if f := g.cells[c]; f.value != cell.value || f.requests != cell.requests || f.cycles != cell.cycles {
			g.drift++
		}
	}
	g.sweeps++
	return res
}
