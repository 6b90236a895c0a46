package lighttpd

import (
	"fmt"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

// EDL is the edge interface for the lighttpd port: the fourteen frequent
// API calls of Table 2.  `read` and `inet_ntop` receive buffers from the
// untrusted side ([out]), which is where No-Redundant-Zeroing saves its
// cycles (Section 6.4).
const EDL = `
enclave {
    trusted {
        public int ecall_main(void);
        public int ecall_handle_connection([user_check] void* ev, [user_check] void* arg);
    };
    untrusted {
        long ocall_socket(void);
        long ocall_listen(int fd);
        long ocall_accept(int fd);
        long ocall_inet_ntop(int af, [out, size=46] uint8_t* dst);
        long ocall_inet_addr([in, string] char* src);
        long ocall_setsockopt(int fd, int opt);
        long ocall_ioctl(int fd, int req);
        long ocall_fcntl(int fd, int cmd);
        long ocall_epoll_ctl(int op, int fd);
        long ocall_read(int fd, [out, size=cap] uint8_t* buf, size_t cap);
        long ocall_fxstat64(int fd, [out, size=144] uint8_t* statbuf);
        long ocall_open64([in, string] char* path);
        long ocall_sendfile64(int outfd, int infd);
        long ocall_writev(int fd, [in, size=len] uint8_t* iov, size_t len);
        long ocall_shutdown(int fd);
        long ocall_close(int fd);
    };
};
`

// Workload constants from Section 6.4: http_load with 100 concurrent
// clients fetching 20 KB pages over loopback.
const (
	PageSize    = 20 * 1024
	Outstanding = 100
	readCap     = 2048 // request-header read chunks

	// cpuWorkPerRequest is lighttpd's per-request compute beyond the
	// modelled memory and kernel work: request routing, header
	// generation, connection state machine.  Calibrated so the native
	// server answers the paper's 53,400 requests/second.
	cpuWorkPerRequest = 70929

	// Fractional call credits per request, normalized from Table 2 at
	// 12.1k requests/s: read 49k/s -> 4.05, and the 25k/s group
	// (fcntl, epoll_ctl, close, setsockopt, fxstat64) -> 2.07 each.
	readsPerRequest = 4.05
	pairPerRequest  = 2.07

	// Enclave pages touched between edge calls (connection state,
	// parser, config trie) — TLB refills under the SDK interface.
	pagesPerSegment = 4
)

// Server is one lighttpd instance bound to a port configuration.
type Server struct {
	// App is the container, embedded.
	*porting.App

	listenFD int
	ClientFD int

	readBuf *sdk.Buffer // request chunks land here (enclave side)
	ntopBuf *sdk.Buffer // inet_ntop output
	statBuf *sdk.Buffer // fxstat64 output
	headBuf *sdk.Buffer // response head for writev
	addrBuf *sdk.Buffer // inet_addr input string
	pathBuf *sdk.Buffer // open64 path string

	readCredit, pairCredit float64

	reqBuf []byte // InjectRequest assembles the request bytes here
	rawBuf []byte // handleConnection reassembles the request head here
}

// indexPage is the paper's single 20 KB page, the document both servers
// serve at /index.html.
func indexPage() []byte {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	return page
}

// NewServer boots lighttpd in the given mode and installs the document
// root (one 20 KB page, as in the paper's http_load run).
func NewServer(mode porting.Mode) *Server {
	app := porting.New(mode, porting.Config{Seed: 3033, EnclaveSize: 64 << 20}, EDL)
	s := &Server{App: app}
	k := app.Kernel

	k.WriteFS("/www/index.html", indexPage())
	about := []byte("<html><body>lighttpd-sim 1.4.41 running inside an enclave</body></html>")
	k.WriteFS("/www/about.html", about)

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
	app.BindTrusted("ecall_handle_connection", s.handleConnection)

	var clk sim.Clock
	if _, err := app.Call(&clk, "ecall_main"); err != nil {
		panic(err)
	}

	s.readBuf = app.AllocBuffer(&clk, readCap)
	s.ntopBuf = app.AllocBuffer(&clk, 46)
	s.statBuf = app.AllocBuffer(&clk, 144)
	s.headBuf = app.AllocBuffer(&clk, 256)
	s.addrBuf = app.AllocBuffer(&clk, 16)
	s.pathBuf = app.AllocBuffer(&clk, 64)
	copy(s.addrBuf.Data, "192.168.1.77\x00")
	return s
}

// handleConnection serves one HTTP/1.0 connection end to end: accept,
// option calls, header reads, stat/open, sendfile, and teardown — the call
// sequence whose per-second rates make up Table 2.
func (s *Server) handleConnection(env *porting.Env, args []sdk.Arg) uint64 {
	ocall := func(name string, a ...sdk.Arg) uint64 {
		r, err := env.OCall(name, a...)
		if err != nil {
			panic(fmt.Sprintf("lighttpd: %s: %v", name, err))
		}
		// Every SDK transition flushed the enclave TLB; the connection
		// state machine touches a handful of pages before the next call.
		env.TouchPages(pagesPerSegment)
		return r
	}

	conn := int(ocall("ocall_accept", sdk.Scalar(uint64(s.listenFD))))
	ocall("ocall_inet_ntop", sdk.Scalar(2), sdk.Buf(s.ntopBuf))
	ocall("ocall_inet_addr", sdk.Buf(s.addrBuf))

	s.pairCredit += pairPerRequest
	pairs := 0
	for ; s.pairCredit >= 1; s.pairCredit-- {
		pairs++
	}
	for i := 0; i < pairs; i++ {
		ocall("ocall_setsockopt", sdk.Scalar(uint64(conn)), sdk.Scalar(1))
		ocall("ocall_fcntl", sdk.Scalar(uint64(conn)), sdk.Scalar(4))
		ocall("ocall_epoll_ctl", sdk.Scalar(1), sdk.Scalar(uint64(conn)))
	}
	ocall("ocall_ioctl", sdk.Scalar(uint64(conn)), sdk.Scalar(0x5421))

	// Read the request head in chunks.
	s.readCredit += readsPerRequest
	reads := 0
	for ; s.readCredit >= 1; s.readCredit-- {
		reads++
	}
	// A read reporting more than readCap leaves received past the
	// reassembled bytes, which route answers with 400.
	s.rawBuf = s.rawBuf[:0]
	received := uint64(0)
	for i := 0; i < reads; i++ {
		n := ocall("ocall_read", sdk.Scalar(uint64(conn)), sdk.Buf(s.readBuf), sdk.Scalar(readCap))
		s.rawBuf = append(s.rawBuf, s.readBuf.Data[:min(n, readCap)]...)
		received += min(n, readCap+1)
	}
	status, doc, headOnly := route(s.rawBuf, received)
	if status != 200 {
		return s.reject(ocall, conn, status)
	}
	closeWork := env.Section(porting.CatAppWork)
	env.Clk.Advance(cpuWorkPerRequest)
	closeWork()

	// Stat and open the document.
	path := s.pathBuf.Data
	n := copy(path, "/www")
	if n+len(doc) >= len(path) {
		return s.reject(ocall, conn, 404) // no document has so long a name
	}
	path[n+copy(path[n:], doc)] = 0
	open := ocall("ocall_open64", sdk.Buf(s.pathBuf))
	if open == ^uint64(0) {
		return s.reject(ocall, conn, 404)
	}
	fd := int(open)
	size := 0
	for i := 0; i < pairs; i++ { // fxstat64 runs at the same 2.07x rate
		size = int(ocall("ocall_fxstat64", sdk.Scalar(uint64(fd)), sdk.Buf(s.statBuf)))
	}

	// Response: headers via writev, body (not for HEAD) via sendfile.
	head := appendResponseHead(s.headBuf.Data[:0], 200, size)
	ocall("ocall_writev", sdk.Scalar(uint64(conn)), sdk.Buf(s.headBuf), sdk.Scalar(uint64(len(head))))
	if !headOnly {
		ocall("ocall_sendfile64", sdk.Scalar(uint64(conn)), sdk.Scalar(uint64(fd)))
	}

	// Teardown.
	ocall("ocall_shutdown", sdk.Scalar(uint64(conn)))
	ocall("ocall_close", sdk.Scalar(uint64(conn)))
	for i := 1; i < pairs; i++ {
		ocall("ocall_close", sdk.Scalar(uint64(fd)))
	}
	return uint64(size)
}

// reject answers the connection with a bodiless error response and tears
// it down.
func (s *Server) reject(ocall func(string, ...sdk.Arg) uint64, conn, status int) uint64 {
	head := appendResponseHead(s.headBuf.Data[:0], status, 0)
	ocall("ocall_writev", sdk.Scalar(uint64(conn)), sdk.Buf(s.headBuf), sdk.Scalar(uint64(len(head))))
	ocall("ocall_shutdown", sdk.Scalar(uint64(conn)))
	ocall("ocall_close", sdk.Scalar(uint64(conn)))
	return uint64(status)
}

// ServeOne accepts and serves one queued connection through the configured
// interface.
func (s *Server) ServeOne(clk *sim.Clock) {
	if _, err := s.App.Call(clk, "ecall_handle_connection", sdk.Scalar(0), sdk.Scalar(0)); err != nil {
		panic(err)
	}
}

// InjectRequest queues a new client connection carrying a GET request and
// returns the client fd for draining the response.
func (s *Server) InjectRequest(path string) int {
	client, err := s.App.Kernel.InjectConnection(s.listenFD)
	if err != nil {
		panic(err)
	}
	// The server-side fd is what Accept will return; the kernel pairs the
	// two ends, so sending from the client side delivers the request
	// bytes into the server end's queue.
	s.reqBuf = append(s.reqBuf[:0], "GET "...)
	s.reqBuf = append(s.reqBuf, path...)
	s.reqBuf = append(s.reqBuf, " HTTP/1.0\r\nHost: localhost\r\nUser-Agent: http_load\r\n\r\n"...)
	var free sim.Clock // client cost runs on the load generator's cores
	if _, err := s.App.Kernel.Send(&free, client, 0, s.reqBuf); err != nil {
		panic(err)
	}
	return client
}

// Fetch serves one GET end to end: inject the request, serve it on clk,
// and drain every response packet.  It returns the response head.
func (s *Server) Fetch(clk *sim.Clock, path string) (head []byte) {
	client := s.InjectRequest(path)
	s.ServeOne(clk)
	head, _ = s.App.Kernel.TakeRX(client)
	for more := true; more; {
		_, more = s.App.Kernel.TakeRX(client)
	}
	return head
}

// clientThinkSeconds is http_load's per-request client-side time
// (connection setup, response verification) spent outside the server.
// The paper's own latency-throughput products imply it: native runs at
// 53,400 req/s with 100 clients (1.87 ms per slot) but reports 1.52 ms of
// server latency — a 0.35 ms client-side gap.
const clientThinkSeconds = 0.35e-3

// Run drives the http_load closed loop (100 concurrent clients) for the
// given simulated duration.
func Run(mode porting.Mode, simSeconds float64) porting.Metrics {
	s := NewServer(mode)
	m := porting.RunClosedLoop(Outstanding, sim.Cycles(simSeconds), func(clk *sim.Clock) { s.Fetch(clk, "/") })
	for _, l := range []*float64{&m.AvgLatency, &m.P50Latency, &m.P99Latency} {
		if *l > clientThinkSeconds {
			*l -= clientThinkSeconds
		}
	}
	return m
}
