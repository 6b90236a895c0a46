package main

// adapter.go is the only file of the benchmark that calls into the
// program.  Everything below uses the program's existing public API with
// default core.PoolOptions{} and arms none of its observers, so the
// coupling a refactor has to keep stable is exactly what this file names.

import (
	"errors"
	"fmt"
	"sync"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/sim"
)

// Program types and constants the generator handles by value.
type (
	kvRequest  = memcached.Request
	kvResponse = memcached.Response
	kvPending  = memcached.PendingResponse
	webPending = lighttpd.PendingResponse
)

const (
	kvOpGet       = memcached.OpGet
	kvOpSet       = memcached.OpSet
	kvStatusOK    = memcached.StatusOK
	kvValueSize   = memcached.ValueSize
	kvHeaderSize  = memcached.HeaderSize
	webPageSize   = lighttpd.PageSize
	vpnOverhead   = openvpn.FrameOverhead
	vpnPayload    = openvpn.IperfPayload
	simCellSecond = 0.05 // simulated seconds per cell, REPORT.md's fig10 setting
)

func isTimeout(err error) bool { return errors.Is(err, core.ErrTimeout) }

// fabric reads the public counters of a server's CallPool.
type fabric struct{ pool *core.CallPool }

func (f fabric) stats() (polls, execs uint64) { return f.pool.Stats() }
func (f fabric) sleeping() bool               { return f.pool.SleepingResponders() > 0 }

// kvServer is memcached over the fabric with one connection.
type kvServer struct {
	fabric
	srv  *memcached.PoolServer
	conn *memcached.PoolConn
}

func newKVServer() *kvServer {
	s := memcached.NewPoolServer(1, core.PoolOptions{})
	return &kvServer{fabric: fabric{s.Pool()}, srv: s, conn: s.Conn(0)}
}

func (k *kvServer) Start()                                 { k.srv.Start() }
func (k *kvServer) Stop()                                  { k.srv.Stop() }
func (k *kvServer) Do(r *kvRequest) (*kvResponse, error)   { return k.conn.Do(r) }
func (k *kvServer) Submit(r *kvRequest) (kvPending, error) { return k.conn.Submit(r) }
func (k *kvServer) Wait(p kvPending) (*kvResponse, error)  { return p.Wait() }

// The memcached and lighttpd codec functions the probes time.
func kvEncodeRequest(buf []byte, r *kvRequest) (int, error) { return memcached.EncodeRequest(buf, r) }
func kvEncodeResponse(buf []byte, r *kvResponse) (int, error) {
	return memcached.EncodeResponse(buf, r)
}
func kvDecodeResponse(pkt []byte) (*kvResponse, error) { return memcached.DecodeResponse(pkt) }
func webParseRequest(raw string) error                 { _, err := lighttpd.ParseRequest(raw); return err }

// webServer is lighttpd over the fabric with one connection.
type webServer struct {
	fabric
	srv  *lighttpd.PoolServer
	conn *lighttpd.PoolConn
}

func newWebServer() *webServer {
	s := lighttpd.NewPoolServer(1, core.PoolOptions{})
	return &webServer{fabric: fabric{s.Pool()}, srv: s, conn: s.Conn(0)}
}

func (w *webServer) Start()                                { w.srv.Start() }
func (w *webServer) Stop()                                 { w.srv.Stop() }
func (w *webServer) Do(raw string) ([]byte, error)         { return w.conn.Do(raw) }
func (w *webServer) Submit(raw string) (webPending, error) { return w.conn.Submit(raw) }
func (w *webServer) Wait(p webPending) ([]byte, error)     { return p.Wait() }

// vpnServer is the openvpn relay over the fabric with one connection.
type vpnServer struct {
	fabric
	srv  *openvpn.PoolServer
	conn *openvpn.PoolConn
}

func newVPNServer() *vpnServer {
	s := openvpn.NewPoolServer(1, core.PoolOptions{})
	return &vpnServer{fabric: fabric{s.Pool()}, srv: s, conn: s.Conn(0)}
}

func (v *vpnServer) Start()                                { v.srv.Start() }
func (v *vpnServer) Stop()                                 { v.srv.Stop() }
func (v *vpnServer) Stream(payloads [][]byte) (int, error) { return v.conn.Stream(payloads) }

// ---- single-layer probe targets ----

// newBarePool starts a one-shard CallPool with an identity handler and
// returns its synchronous round trip.
func newBarePool() (call func() error, stop func()) {
	p := core.NewCallPool([]core.PoolFunc{func(_ int, d uint64) uint64 { return d }}, core.PoolOptions{Shards: 1})
	p.Start()
	r := p.Requester()
	return func() error { _, err := r.Call(0, 1); return err }, p.Stop
}

// newHotCall starts the paper's single-slot HotCall with its responder.
// The spin budget is raised from the default 10 attempts so the probe
// measures the round trip, not the starvation fallback.
func newHotCall() (call func() error, stop func()) {
	hc := new(core.HotCall)
	hc.Timeout = 1 << 20
	r := core.NewResponder(hc, []func(interface{}) uint64{func(interface{}) uint64 { return 1 }})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.Run() }()
	data := interface{}(uint64(1))
	return func() error { _, err := hc.Call(0, data); return err },
		func() { hc.Stop(); wg.Wait() }
}

// newVecPool starts a ring-enabled one-shard pool with a no-op vec
// handler and returns a function posting one SubmitV window of n calls
// and waiting for it.
func newVecPool(n int) (window func() error, stop func()) {
	p := core.NewCallPool([]core.PoolFunc{func(int, uint64) uint64 { return 0 }},
		core.PoolOptions{Shards: 1, RingSlabs: 2 * n, RingSlabBytes: 2048})
	p.SetVecTable([]core.PoolVecFunc{func(int, uint64, []core.Segment) uint64 { return 0 }})
	p.Start()
	r := p.Requester()
	segs := make([][1]core.Segment, n)
	calls := make([]core.VecCall, n)
	for i := range calls {
		slab, _, ok := r.Ring().Acquire()
		if !ok {
			panic("hotpath: probe ring has no free slab")
		}
		segs[i][0] = core.Segment{Slab: slab, Off: 0, Len: vpnOverhead + vpnPayload}
		calls[i] = core.VecCall{ID: 0, Segs: segs[i][:]}
	}
	return func() error {
		b, err := r.SubmitV(calls)
		if b != nil {
			if werr := b.WaitAll(nil); err == nil {
				err = werr
			}
		}
		return err
	}, p.Stop
}

// newVPNCipher returns a cipher context over a 16-byte cipher key and a
// 32-byte MAC key.
func newVPNCipher(cipherKey, macKey string) *openvpn.Cipher {
	var ck [16]byte
	var mk [32]byte
	copy(ck[:], cipherKey)
	copy(mk[:], macKey)
	return openvpn.NewCipher(ck, mk)
}

// vpnCipherPair returns a sealing and an opening context over one key.
func vpnCipherPair() (seal func(dst, plain []byte) int, open func(dst, frame []byte) (int, error)) {
	const ck, mk = "hotpath-probe-k!", "hotpath-probe-hmac-key-32-bytes!"
	return newVPNCipher(ck, mk).Seal, newVPNCipher(ck, mk).Open
}

// ---- the simulated platform ----

// simCellID names one cell of the sim_apps workload: a simulated port in
// SGX mode or in HotCalls mode.
type simCellID struct {
	app string
	hot bool
}

// simCells lists the six cells, each port's SGX cell right before its
// HotCalls cell.
var simCells = [...]simCellID{
	{"memcached", false}, {"memcached", true},
	{"lighttpd", false}, {"lighttpd", true},
	{"openvpn", false}, {"openvpn", true},
}

// metric is the per-layer metric name of the cell's simulated result:
// requests/s, or Mbit/s for openvpn, as Figure 10 plots them.
func (id simCellID) metric() string {
	unit, mode := "rps", "sgx"
	if id.app == "openvpn" {
		unit = "mbit_s"
	}
	if id.hot {
		mode = "hotcalls"
	}
	return fmt.Sprintf("sim.%s_%s_%s", id.app, mode, unit)
}

// simResult is one app x mode cell: exact simulated statistics plus what
// the generator verified.
type simResult struct {
	value     float64 // req/s, or Mbit/s for openvpn: what Figure 10 plots
	requests  uint64
	failed    uint64
	bytes     uint64 // verified payload bytes
	cycles    uint64 // simulated cycles on the server clock
	edgeCalls uint64
	profile   map[string]uint64 // self cycles per category; nil unless profiled
}

// simCell is one booted simulated server with its request source.
type simCell struct {
	app         *porting.App
	outstanding int
	mbit        bool // report payload bandwidth, as RunIperf does
	// serve injects one request, serves it on clk, drains and checks the
	// response, and books it in res.
	serve func(clk *sim.Clock, res *simResult)
}

// bootSimCell boots a fresh simulated server in SGX or HotCalls mode and
// binds inputs derived from seed to it.
func bootSimCell(id simCellID, seed uint64) *simCell {
	mode := porting.SGX
	if id.hot {
		mode = porting.HotCalls
	}
	book := func(res *simResult, ok bool, n uint64) {
		if ok {
			res.bytes += n
		} else {
			res.failed++
		}
	}
	switch id.app {
	case "memcached":
		s := memcached.NewServer(mode)
		w := memcached.NewWorkload(s, seed)
		var seq uint32
		return &simCell{app: s.App, outstanding: memcached.Outstanding, serve: func(clk *sim.Clock, res *simResult) {
			w.InjectNext()
			s.ServeOne(clk)
			resp, err := w.DrainResponse()
			// A GET may precede the first SET of its key, so a miss is
			// a correct answer; a hit must carry a whole value.
			ok := err == nil && resp.Opaque == seq &&
				(resp.Op != kvOpGet || resp.Status != kvStatusOK || len(resp.Value) == kvValueSize)
			n := uint64(0)
			if ok && (resp.Op == kvOpSet || resp.Status == kvStatusOK) {
				n = kvValueSize
			}
			book(res, ok, n)
			seq++
		}}
	case "lighttpd":
		s := lighttpd.NewServer(mode)
		return &simCell{app: s.App, outstanding: lighttpd.Outstanding, serve: func(clk *sim.Clock, res *simResult) {
			client := s.InjectRequest("/")
			s.ServeOne(clk)
			var head []byte
			total := 0
			for {
				pkt, more := s.App.Kernel.TakeRX(client)
				if !more {
					break
				}
				if head == nil {
					head = pkt
				}
				total += len(pkt)
			}
			book(res, webCheck(head, total), webPageSize)
		}}
	case "openvpn":
		s := openvpn.NewServer(mode)
		// The simulated server's own tunnel keys.
		seal := newVPNCipher("tunnel-cipher-k!", "tunnel-hmac-key-tunnel-hmac-key-")
		payload := seededBytes(seed, vpnPayload)
		// 64 outstanding is RunIperf's window.
		return &simCell{app: s.App, outstanding: 64, mbit: true, serve: func(clk *sim.Clock, res *simResult) {
			before := s.ForwardedBytes()
			s.ServePacket(clk, seal, payload, false)
			got := s.ForwardedBytes() - before
			book(res, got == vpnPayload && s.Dropped() == 0, got)
		}}
	}
	panic("hotpath: unknown simulated app " + id.app)
}

// run drives the cell closed-loop for simCellSecond simulated seconds.
func (c *simCell) run(profile bool) simResult {
	var res simResult
	var prof *porting.Profile
	if profile {
		prof = c.app.EnableProfile()
	}
	c.app.ResetCounters()
	m := porting.RunClosedLoop(c.outstanding, sim.Cycles(simCellSecond), func(clk *sim.Clock) {
		c.serve(clk, &res)
		res.cycles = clk.Now()
	})
	res.requests, res.value = m.Requests, m.Throughput
	if c.mbit {
		res.value = min(float64(res.bytes)*8/m.SimSeconds/1e6, openvpn.LinkMbits)
	}
	for _, n := range c.app.Counters() {
		res.edgeCalls += n
	}
	if prof != nil {
		res.profile = prof.Totals()
	}
	return res
}
