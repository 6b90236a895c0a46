package lighttpd

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

func TestParseRequest(t *testing.T) {
	req, err := ParseRequest("GET /index.html HTTP/1.0\r\nHost: x\r\nUser-Agent: http_load\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/index.html" || req.Version != "HTTP/1.0" {
		t.Fatalf("req = %+v", req)
	}
	if req.Headers["host"] != "x" || req.Headers["user-agent"] != "http_load" {
		t.Fatalf("headers = %v", req.Headers)
	}
}

func TestParseRequestErrors(t *testing.T) {
	if _, err := ParseRequest("garbage"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseRequest("POST / HTTP/1.0\r\n\r\n"); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseRequest("GET / HTTP/1.0\r\nbadheader\r\n\r\n"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRequestNeverPanics(t *testing.T) {
	f := func(raw string) bool {
		ParseRequest(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResponseHead(t *testing.T) {
	head := ResponseHead(200, 20480)
	if !strings.HasPrefix(head, "HTTP/1.0 200 OK\r\n") || !strings.Contains(head, "Content-Length: 20480") {
		t.Fatalf("head = %q", head)
	}
	if !strings.Contains(ResponseHead(404, 0), "404 Not Found") {
		t.Fatal("404 head wrong")
	}
}

func TestServerServesPage(t *testing.T) {
	s := NewServer(porting.Native)
	client := s.InjectRequest("/")
	var clk sim.Clock
	s.ServeOne(&clk)
	// First RX chunk is the header block, second the sendfile body.
	head, ok := s.App.Kernel.TakeRX(client)
	if !ok {
		t.Fatal("no response headers")
	}
	if !strings.HasPrefix(string(head), "HTTP/1.0 200 OK") {
		t.Fatalf("head = %q", head[:40])
	}
	body, ok := s.App.Kernel.TakeRX(client)
	if !ok {
		t.Fatal("no response body")
	}
	if len(body) != PageSize {
		t.Fatalf("body = %d bytes, want %d", len(body), PageSize)
	}
}

func TestServerWorksInAllModes(t *testing.T) {
	for _, mode := range porting.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewServer(mode)
			var clk sim.Clock
			for i := 0; i < 10; i++ {
				client := s.InjectRequest("/")
				s.ServeOne(&clk)
				if _, ok := s.App.Kernel.TakeRX(client); !ok {
					t.Fatal("no response")
				}
			}
		})
	}
}

func TestTable2CallMix(t *testing.T) {
	// Table 2 at 12.1k requests/s: read 49k (4.05/req); fcntl,
	// epoll_ctl, close, setsockopt, fxstat64 25k (2.07/req); inet_ntop,
	// accept, inet_addr, ioctl, open64_2, sendfile64, shutdown, writev
	// 12k (1/req).  Total ~270k calls/s = 22.3/req.
	s := NewServer(porting.SGX)
	var clk sim.Clock
	s.App.ResetCounters()
	const n = 1000
	for i := 0; i < n; i++ {
		client := s.InjectRequest("/")
		s.ServeOne(&clk)
		s.App.Kernel.TakeRX(client)
		s.App.Kernel.TakeRX(client)
	}
	c := s.App.Counters()
	ratios := map[string]float64{
		"ocall_read":       4.05,
		"ocall_fcntl":      2.07,
		"ocall_epoll_ctl":  2.07,
		"ocall_close":      2.07,
		"ocall_setsockopt": 2.07,
		"ocall_fxstat64":   2.07,
		"ocall_inet_ntop":  1, "ocall_accept": 1, "ocall_inet_addr": 1,
		"ocall_ioctl": 1, "ocall_open64": 1, "ocall_sendfile64": 1,
		"ocall_shutdown": 1, "ocall_writev": 1,
	}
	var total uint64
	for name, want := range ratios {
		got := float64(c[name]) / n
		total += c[name]
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s = %.2f per request, want %.2f", name, got, want)
		}
	}
	if perReq := float64(total) / n; perReq < 20.5 || perReq > 24.5 {
		t.Errorf("total ocalls per request = %.2f, want ~22.3", perReq)
	}
}

// TestNativeThroughputMatch pins the calibration point: native lighttpd
// served 53,400 pages/second at 1.52 ms (Section 6.4).
func TestNativeThroughputMatch(t *testing.T) {
	m := Run(porting.Native, 0.05)
	t.Logf("native: %.0f req/s, %.2f ms (paper: 53,400 req/s, 1.52 ms)", m.Throughput, m.AvgLatency*1e3)
	if m.Throughput < 53400*0.95 || m.Throughput > 53400*1.05 {
		t.Errorf("native throughput = %.0f, want 53,400 +/- 5%%", m.Throughput)
	}
}

// TestSGXThroughputMatch pins the second calibration point: 12,100
// requests/second at 8.25 ms for the unoptimized port.
func TestSGXThroughputMatch(t *testing.T) {
	m := Run(porting.SGX, 0.05)
	t.Logf("sgx: %.0f req/s, %.2f ms (paper: 12,100 req/s, 8.25 ms)", m.Throughput, m.AvgLatency*1e3)
	if m.Throughput < 12100*0.88 || m.Throughput > 12100*1.12 {
		t.Errorf("sgx throughput = %.0f, want 12,100 +/- 12%%", m.Throughput)
	}
}

// TestHotCallsPrediction checks the predicted points: 40,400 req/s with
// HotCalls and 44,800 req/s with No-Redundant-Zeroing.
func TestHotCallsPrediction(t *testing.T) {
	hc := Run(porting.HotCalls, 0.05)
	nrz := Run(porting.HotCallsNRZ, 0.05)
	t.Logf("hotcalls: %.0f req/s (paper: 40,400); +NRZ: %.0f (paper: 44,800)", hc.Throughput, nrz.Throughput)
	if hc.Throughput < 40400*0.8 || hc.Throughput > 40400*1.2 {
		t.Errorf("hotcalls = %.0f, want 40,400 +/- 20%%", hc.Throughput)
	}
	if nrz.Throughput <= hc.Throughput {
		t.Errorf("NRZ (%.0f) must beat HotCalls (%.0f)", nrz.Throughput, hc.Throughput)
	}
	if nrz.Throughput < 44800*0.8 || nrz.Throughput > 44800*1.2 {
		t.Errorf("nrz = %.0f, want 44,800 +/- 20%%", nrz.Throughput)
	}
}

func TestServer404ForMissingDocument(t *testing.T) {
	s := NewServer(porting.SGX)
	client := s.InjectRequest("/missing.html")
	var clk sim.Clock
	s.ServeOne(&clk)
	head, ok := s.App.Kernel.TakeRX(client)
	if !ok {
		t.Fatal("no response")
	}
	if !strings.HasPrefix(string(head), "HTTP/1.0 404 Not Found") {
		t.Fatalf("head = %q", head[:40])
	}
	if _, ok := s.App.Kernel.TakeRX(client); ok {
		t.Fatal("404 response should carry no body")
	}
}

func TestServerServesByPath(t *testing.T) {
	s := NewServer(porting.HotCallsNRZ)
	client := s.InjectRequest("/about.html")
	var clk sim.Clock
	s.ServeOne(&clk)
	head, _ := s.App.Kernel.TakeRX(client)
	if !strings.HasPrefix(string(head), "HTTP/1.0 200 OK") {
		t.Fatalf("head = %q", head)
	}
	body, ok := s.App.Kernel.TakeRX(client)
	if !ok || !strings.Contains(string(body), "lighttpd-sim") {
		t.Fatalf("body = %q", body)
	}
}

// TestServerAnswersHostileRequests sends request heads the scanner
// rejects and a path longer than the server's path buffer: each gets a
// bodiless 400 or 404, and the server goes on serving the next request.
func TestServerAnswersHostileRequests(t *testing.T) {
	cases := []struct {
		raw, status string
	}{
		{"", "400"},
		{"garbage\r\n\r\n", "400"},
		{"BREW /pot HTTP/1.0\r\n\r\n", "400"},
		{"GET /" + strings.Repeat("a", 59) + " HTTP/1.0\r\n\r\n", "404"},
		{"GET /" + strings.Repeat("a", 500) + " HTTP/1.0\r\n\r\n", "404"},
	}
	for _, mode := range porting.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewServer(mode)
			var clk sim.Clock
			for _, c := range cases {
				client, err := s.App.Kernel.InjectConnection(s.listenFD)
				if err != nil {
					t.Fatal(err)
				}
				if c.raw != "" {
					if _, err := s.App.Kernel.Send(new(sim.Clock), client, 0, []byte(c.raw)); err != nil {
						t.Fatal(err)
					}
				}
				s.ServeOne(&clk)
				head, _ := s.App.Kernel.TakeRX(client)
				if !strings.HasPrefix(string(head), "HTTP/1.0 "+c.status+" ") {
					t.Fatalf("%.40q: head = %q, want status %s", c.raw, head, c.status)
				}
				if _, more := s.App.Kernel.TakeRX(client); more {
					t.Fatalf("%.40q: error response carries a body", c.raw)
				}
			}
			if head := s.Fetch(&clk, "/"); !strings.HasPrefix(string(head), "HTTP/1.0 200 OK") {
				t.Fatalf("after hostile requests: head = %q", head)
			}
		})
	}
}

// TestServerRejectsHostileReceiveCount rebinds ocall_read to report more
// bytes than the enclave buffer it was handed: the connection gets a
// bodiless 400, in both edge-call modes.
func TestServerRejectsHostileReceiveCount(t *testing.T) {
	for _, count := range []uint64{readCap + 1, 1 << 20} {
		for _, mode := range []porting.Mode{porting.SGX, porting.HotCalls} {
			t.Run(fmt.Sprintf("%s/%d", mode, count), func(t *testing.T) {
				s := NewServer(mode)
				s.App.RT.MustBindOCall("ocall_read", func(*sdk.Ctx, []sdk.Arg) uint64 { return count })
				var clk sim.Clock
				client := s.InjectRequest("/")
				s.ServeOne(&clk)
				head, _ := s.App.Kernel.TakeRX(client)
				if !strings.HasPrefix(string(head), "HTTP/1.0 400 ") {
					t.Fatalf("head = %q, want status 400", head)
				}
				if _, more := s.App.Kernel.TakeRX(client); more {
					t.Fatal("400 response carries a body")
				}
			})
		}
	}
}
