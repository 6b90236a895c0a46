package memcached

import (
	"fmt"
	"strconv"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

// EDL is the edge interface the Section 6.1 framework generates for
// memcached: the main-wrapper ecall, the libevent-callback entry
// (RunEnclaveFunction), and the two frequent API calls of Table 2.  The
// `read` ocall receives network data, hence the [out] attribute whose
// redundant zeroing No-Redundant-Zeroing removes.
const EDL = `
enclave {
    trusted {
        public int ecall_main(void);
        public int ecall_run_enclave_function([user_check] void* fn, [user_check] void* arg);
    };
    untrusted {
        long ocall_socket(void);
        long ocall_listen(int fd);
        long ocall_read(int fd, [out, size=cap] uint8_t* buf, size_t cap);
        long ocall_sendmsg(int fd, [in, size=len] uint8_t* buf, size_t len);
    };
};
`

// Workload parameters from Section 6.2: memtier with the binary protocol,
// SET:GET 1:1, 2 KB payloads, 4 threads x 50 connections.
const (
	ValueSize   = 2048
	Outstanding = 200
	keyspace    = 24576 // ~48 MB of values: uniform accesses, far beyond the LLC

	// bufCap holds a header plus a 2 KB payload.
	bufCap = ValueSize + 128

	// cpuWorkPerRequest is memcached's per-request compute beyond the
	// modelled memory accesses: libevent dispatch, protocol handling,
	// hashing.  Calibrated so the native configuration serves the
	// paper's 316,500 requests/second (see TestNativeThroughputMatch).
	cpuWorkPerRequest = 10774

	// Enclave pages the handler touches between edge calls; under the
	// SDK interface each segment pays TLB refills (see porting.TouchPages).
	pagesAfterRead = 15
	pagesAfterWork = 9
)

// Server is one memcached instance bound to a port configuration.
type Server struct {
	// App is the container, embedded: SetTelemetry attaches a registry
	// to the whole simulated stack.
	*porting.App
	Store *Store

	listenFD int
	connFD   int // server side of the single multiplexed connection
	ClientFD int // generator side

	reqBuf  *sdk.Buffer
	respBuf *sdk.Buffer
}

// NewServer boots memcached in the given mode: builds the container, binds
// the edge functions, and runs the ecall_main wrapper, which performs the
// socket setup through ocalls exactly as the ported binary would.
func NewServer(mode porting.Mode) *Server {
	app := porting.New(mode, porting.Config{Seed: 1009, EnclaveSize: 192 << 20}, EDL)
	s := &Server{App: app}
	s.Store = NewStore(app, keyspace, ValueSize)

	k := app.Kernel
	app.BindUntrusted("ocall_socket", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		return uint64(k.Socket(ctx.Clk))
	})
	app.BindUntrusted("ocall_listen", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		if err := k.Listen(ctx.Clk, int(args[0].Scalar)); err != nil {
			panic(err)
		}
		return 0
	})
	app.BindUntrusted("ocall_read", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		buf := args[1].Buf
		n, err := k.Recv(ctx.Clk, "read", int(args[0].Scalar), buf.Addr, buf.Data[:args[2].Scalar])
		if err != nil {
			panic(err)
		}
		return uint64(n)
	})
	app.BindUntrusted("ocall_sendmsg", func(ctx *sdk.Ctx, args []sdk.Arg) uint64 {
		buf := args[1].Buf
		n, err := k.Send(ctx.Clk, "sendmsg", int(args[0].Scalar), buf.Addr, buf.Data[:args[2].Scalar])
		if err != nil {
			panic(err)
		}
		return uint64(n)
	})

	app.BindTrusted("ecall_main", func(env *porting.Env, args []sdk.Arg) uint64 {
		fd, err := env.OCall("ocall_socket")
		if err != nil {
			panic(err)
		}
		if _, err := env.OCall("ocall_listen", sdk.Scalar(fd)); err != nil {
			panic(err)
		}
		s.listenFD = int(fd)
		return 0
	})
	app.BindTrusted("ecall_run_enclave_function", s.handleEvent)

	var clk sim.Clock
	if _, err := app.Call(&clk, "ecall_main"); err != nil {
		panic(err)
	}
	client, err := k.InjectConnection(s.listenFD)
	if err != nil {
		panic(err)
	}
	s.ClientFD = client
	conn, err := k.Accept(&clk, s.listenFD)
	if err != nil {
		panic(err)
	}
	s.connFD = conn

	s.reqBuf = app.AllocBuffer(&clk, bufCap)
	s.respBuf = app.AllocBuffer(&clk, bufCap)
	return s
}

// handleEvent is the trusted libevent callback: receive one request,
// serve it, send the response — the read / work / sendmsg sequence whose
// edge calls dominate Table 2.
func (s *Server) handleEvent(env *porting.Env, args []sdk.Arg) uint64 {
	n, err := env.OCall("ocall_read", sdk.Scalar(uint64(s.connFD)), sdk.Buf(s.reqBuf), sdk.Scalar(bufCap))
	if err != nil {
		panic(err)
	}
	env.TouchPages(pagesAfterRead)

	req, err := decodeRequest(s.reqBuf.Data[:n])
	if err != nil {
		panic(fmt.Sprintf("memcached: bad request: %v", err))
	}
	resp := Response{Op: req.op, Opaque: req.opaque, Status: StatusOK}
	closeStore := env.Section(porting.CatDataStore)
	switch req.op {
	case OpGet:
		// The value is copied from the store into the response buffer;
		// Get charges the move.
		if val, ok := s.Store.Get(env, req.key, s.respBuf.Addr); ok {
			resp.Value = val
		} else {
			resp.Status = StatusNotFound
		}
	case OpSet:
		s.Store.Set(env, req.key, req.value)
	case OpDelete:
		if !s.Store.Delete(env, req.key) {
			resp.Status = StatusNotFound
		}
	}
	closeStore()
	closeWork := env.Section(porting.CatAppWork)
	env.Clk.Advance(cpuWorkPerRequest)
	closeWork()
	env.TouchPages(pagesAfterWork)

	respLen, err := EncodeResponse(s.respBuf.Data, &resp)
	if err != nil {
		panic(err)
	}
	if _, err := env.OCall("ocall_sendmsg", sdk.Scalar(uint64(s.connFD)), sdk.Buf(s.respBuf), sdk.Scalar(uint64(respLen))); err != nil {
		panic(err)
	}
	return uint64(respLen)
}

// ServeOne processes the next queued request through the configured
// interface (one RunEnclaveFunction event callback).
func (s *Server) ServeOne(clk *sim.Clock) {
	if _, err := s.App.Call(clk, "ecall_run_enclave_function", sdk.Scalar(0), sdk.Scalar(0)); err != nil {
		panic(err)
	}
}

// Workload is the memtier-like generator: 1:1 SET:GET over the keyspace
// with fixed-size values, deterministic under its seed.
type Workload struct {
	s    *Server
	rng  *sim.RNG
	pkt  []byte
	val  []byte
	key  []byte // "memtier-" + 8 digits, rewritten per request
	seq  uint32
	sets uint64
	gets uint64
}

// NewWorkload returns a generator bound to the server.
func NewWorkload(s *Server, seed uint64) *Workload {
	w := &Workload{s: s, rng: sim.NewRNG(seed), pkt: make([]byte, bufCap), val: make([]byte, ValueSize), key: []byte("memtier-00000000")}
	for i := range w.val {
		w.val[i] = byte(i * 31)
	}
	return w
}

// InjectNext queues one request on the server's connection.
func (w *Workload) InjectNext() {
	// The key is "memtier-%08d" of the drawn index: digits right-aligned
	// over the zero padding.
	const prefix = len("memtier-")
	var digits [8]byte
	d := strconv.AppendInt(digits[:0], int64(w.rng.Intn(keyspace)), 10)
	copy(w.key[prefix:], "00000000")
	copy(w.key[len(w.key)-len(d):], d)
	req := Request{Key: string(w.key), Opaque: w.seq}
	w.seq++
	if w.rng.Bool(0.5) {
		req.Op = OpSet
		req.Value = w.val
		w.sets++
	} else {
		req.Op = OpGet
		w.gets++
	}
	n, err := EncodeRequest(w.pkt, &req)
	if err != nil {
		panic(err)
	}
	if err := w.s.App.Kernel.Inject(w.s.connFD, w.pkt[:n]); err != nil {
		panic(err)
	}
}

// DrainResponse consumes and validates one server response.
func (w *Workload) DrainResponse() (*Response, error) {
	pkt, ok := w.s.App.Kernel.TakeRX(w.s.ClientFD)
	if !ok {
		return nil, fmt.Errorf("memcached: no response queued")
	}
	return DecodeResponse(pkt)
}

// Mix returns the SET and GET counts issued so far.
func (w *Workload) Mix() (sets, gets uint64) { return w.sets, w.gets }

// Run drives the closed loop for the given simulated duration and returns
// the metrics of Figures 10 and 11.
func Run(mode porting.Mode, simSeconds float64) porting.Metrics {
	s := NewServer(mode)
	w := NewWorkload(s, 77)
	return porting.RunClosedLoop(Outstanding, sim.Cycles(simSeconds), func(clk *sim.Clock) {
		w.InjectNext()
		s.ServeOne(clk)
		if _, err := w.DrainResponse(); err != nil {
			panic(err)
		}
	})
}
