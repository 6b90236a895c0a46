package lighttpd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// testPoolOpts sizes the ring to a connection window and gives
// submissions patience.
func testPoolOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		MaxResponders: maxResponders,
		Timeout:       1 << 20,
	}
}

const getIndex = "GET /index.html HTTP/1.0\r\nHost: sim\r\n\r\n"

func TestPoolServerServesIndex(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Start()
	defer s.Stop()

	resp, err := s.Conn(0).Do(getIndex)
	if err != nil {
		t.Fatal(err)
	}
	text := string(resp)
	if !strings.HasPrefix(text, "HTTP/1.0 200 OK\r\n") {
		t.Fatalf("status line: %q", text[:40])
	}
	if !strings.Contains(text, fmt.Sprintf("Content-Length: %d\r\n", PageSize)) {
		t.Fatalf("content length missing: %q", text[:120])
	}
	_, body, ok := strings.Cut(text, "\r\n\r\n")
	if !ok || len(body) != PageSize {
		t.Fatalf("body = %d bytes, want %d", len(body), PageSize)
	}
}

func TestPoolServerHeadAndErrors(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	resp, err := c.Do("HEAD /index.html HTTP/1.0\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != ResponseHead(200, PageSize) {
		t.Fatalf("HEAD must return the head only: %q", resp)
	}

	resp, err = c.Do("GET /missing HTTP/1.0\r\n\r\n")
	if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.0 404 Not Found\r\n") {
		t.Fatalf("404 = (%q, %v)", resp, err)
	}

	resp, err = c.Do("NONSENSE\r\n\r\n")
	if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.0 400 Bad Request\r\n") {
		t.Fatalf("400 = (%q, %v)", resp, err)
	}
}

// TestClocksAgree sends the same request heads to the simulated Server
// and through the fabric's PoolConn.Do: both run one route, so each
// answers with the same status line and Content-Length, and a body
// follows from both or from neither.
func TestClocksAgree(t *testing.T) {
	heads := []string{"NONSENSE /index.html\r\n\r\n"}
	for _, method := range []string{"GET", "HEAD"} {
		for _, path := range []string{"/", "/index.html", "/missing"} {
			heads = append(heads, method+" "+path+" HTTP/1.0\r\nHost: sim\r\n\r\n")
		}
	}
	// split cuts a response into its status line, its Content-Length
	// and its body.
	split := func(resp []byte) (status, length string, body []byte) {
		head, body, _ := bytes.Cut(resp, []byte("\r\n\r\n"))
		status, rest, _ := strings.Cut(string(head), "\r\n")
		_, length, _ = strings.Cut(rest, "Content-Length: ")
		length, _, _ = strings.Cut(length, "\r\n")
		return status, length, body
	}
	sim1 := NewServer(porting.SGX)
	fab := NewPoolServer(1, testPoolOpts(1))
	fab.Start()
	defer fab.Stop()
	var clk sim.Clock
	for _, raw := range heads {
		client, err := sim1.App.Kernel.InjectConnection(sim1.listenFD)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim1.App.Kernel.Send(new(sim.Clock), client, 0, []byte(raw)); err != nil {
			t.Fatal(err)
		}
		sim1.ServeOne(&clk)
		var simResp []byte
		for {
			pkt, more := sim1.App.Kernel.TakeRX(client)
			if !more {
				break
			}
			simResp = append(simResp, pkt...)
		}
		fabResp, err := fab.Conn(0).Do(raw)
		if err != nil {
			t.Fatalf("%q: fabric: %v", raw, err)
		}
		ss, sl, sb := split(simResp)
		fs, fl, fb := split(fabResp)
		if ss != fs || sl != fl || (len(sb) > 0) != (len(fb) > 0) {
			t.Errorf("%q: simulated (%q, length %s, %d body bytes), fabric (%q, length %s, %d body bytes)",
				raw, ss, sl, len(sb), fs, fl, len(fb))
		}
	}
}

func TestPoolServerConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, testPoolOpts(3))
	s.Pool().SetTelemetry(telemetry.New())
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		c := s.Conn(ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			pending := make([]PendingResponse, 0, porting.Window)
			served := 0
			for served < 300 {
				for len(pending) < porting.Window {
					pr, err := c.Submit(getIndex)
					if err != nil {
						errs <- fmt.Errorf("conn %d submit: %v", ci, err)
						return
					}
					pending = append(pending, pr)
				}
				for _, pr := range pending {
					resp, err := pr.Wait()
					if err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
						errs <- fmt.Errorf("conn %d: (%.40q, %v)", ci, resp, err)
						return
					}
					served++
				}
				pending = pending[:0]
			}
			errs <- nil
		}(ci)
	}
	wg.Wait()
	for ci := 0; ci < conns; ci++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolServerServesLargeDocument pins that a document's size is not
// bounded by any request buffer: the 20 KB page, ten times readCap, comes
// back whole over GET, its head alone over HEAD, with a full window of
// them in flight.
func TestPoolServerServesLargeDocument(t *testing.T) {
	body := indexPage()
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	head := ResponseHead(200, len(body))
	for _, tc := range []struct {
		raw  string
		want []byte
	}{
		{"GET /index.html HTTP/1.0\r\n\r\n", append([]byte(head), body...)},
		{"HEAD /index.html HTTP/1.0\r\n\r\n", []byte(head)},
	} {
		var pending [porting.Window]PendingResponse
		for i := range pending {
			var err error
			if pending[i], err = c.Submit(tc.raw); err != nil {
				t.Fatalf("submit %d of %.20q: %v", i, tc.raw, err)
			}
		}
		for i := range pending {
			resp, err := pending[i].Wait()
			if err != nil || !bytes.Equal(resp, tc.want) {
				t.Fatalf("response %d to %.20q = (%d bytes %.40q, %v), want %d bytes", i, tc.raw, len(resp), resp, err, len(tc.want))
			}
		}
	}
}

// TestPoolConnWindowFull pins the submit-side sentinel: the seventeenth
// uncollected request fails with core.ErrWindowFull and collecting one
// makes room again.
func TestPoolConnWindowFull(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	var pending [porting.Window]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(getIndex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(getIndex); !errors.Is(err, core.ErrWindowFull) {
		t.Fatalf("submit into a full window: err = %v, want core.ErrWindowFull", err)
	}
	if _, err := pending[0].Wait(); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Submit(getIndex)
	if err != nil {
		t.Fatalf("submit after collecting one: %v", err)
	}
	for _, pr := range append(pending[1:], pr) {
		if _, err := pr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolConnOutOfOrderCollect collects the newest of a full window
// first: the next Submit would overwrite the request buffer of the oldest
// request, still uncollected, so it is refused until that one is
// collected.  The options are the programs' own (core.PoolOptions{}).
func TestPoolConnOutOfOrderCollect(t *testing.T) {
	s := NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	var pending [porting.Window]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(getIndex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pending[porting.Window-1].Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(getIndex); !errors.Is(err, core.ErrWindowFull) {
		t.Fatalf("submit into the uncollected slot 0: err = %v, want core.ErrWindowFull", err)
	}
	if _, err := pending[0].Wait(); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Submit(getIndex)
	if err != nil {
		t.Fatalf("submit after collecting the oldest: %v", err)
	}
	for _, pr := range append(pending[1:porting.Window-1], pr) {
		if resp, err := pr.Wait(); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
			t.Fatalf("collect = (%q, %v)", resp, err)
		}
	}
}

// TestPoolConnWindowModel drives one connection with seeded Submits and
// Waits, collecting in random order, against a sequential model of its
// porting.Window-slot ring: a Submit fails with core.ErrWindowFull, and
// allocates nothing, exactly when the model's next slot holds an
// uncollected request; every other Submit takes that slot, and every
// response is its own request's — the page for a GET, the head alone for
// a HEAD, the 404 head for a missing path.
func TestPoolConnWindowModel(t *testing.T) {
	head := ResponseHead(200, len(indexPage()))
	kinds := []struct{ raw, want string }{
		{getIndex, head + string(indexPage())},
		{"HEAD /index.html HTTP/1.0\r\n\r\n", head},
		{"GET /missing.html HTTP/1.0\r\n\r\n", ResponseHead(404, 0)},
	}
	type inflight struct {
		pr   PendingResponse
		kind int
		pos  int
	}
	for seed := uint64(1); seed <= 3; seed++ {
		s := NewPoolServer(1, testPoolOpts(1))
		s.Start()
		c := s.Conn(0)
		rng := rand.New(rand.NewPCG(seed, 53))
		var uncollected [porting.Window]bool
		var pending []inflight
		next, refused := 0, 0
		for step := 0; step < 3000; step++ {
			if len(pending) > 0 && rng.IntN(5) >= 3 {
				i := rng.IntN(len(pending))
				f := pending[i]
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				resp, err := f.pr.Wait()
				uncollected[f.pos%porting.Window] = false
				if err != nil || string(resp) != kinds[f.kind].want {
					t.Fatalf("seed %d step %d: %.20q collected (%.40q, %v), want %.40q", seed, step, kinds[f.kind].raw, resp, err, kinds[f.kind].want)
				}
				continue
			}
			f := inflight{kind: rng.IntN(len(kinds)), pos: next}
			raw := kinds[f.kind].raw
			pr, err := c.Submit(raw)
			if uncollected[next%porting.Window] {
				if !errors.Is(err, core.ErrWindowFull) {
					t.Fatalf("seed %d step %d: Submit into uncollected slot %d: err = %v, want ErrWindowFull", seed, step, next%porting.Window, err)
				}
				if n := testing.AllocsPerRun(1, func() { c.Submit(raw) }); n != 0 {
					t.Fatalf("seed %d step %d: a refused Submit allocates %v times", seed, step, n)
				}
				refused++
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: Submit into collected slot %d: %v", seed, step, next%porting.Window, err)
			}
			f.pr = pr
			uncollected[next%porting.Window] = true
			next++
			pending = append(pending, f)
		}
		for _, f := range pending {
			if resp, err := f.pr.Wait(); err != nil || string(resp) != kinds[f.kind].want {
				t.Fatalf("seed %d: draining %.20q: (%.40q, %v)", seed, kinds[f.kind].raw, resp, err)
			}
		}
		s.Stop()
		if refused == 0 {
			t.Errorf("seed %d: no Submit met an uncollected slot", seed)
		}
	}
}

// TestPoolConnWaitRejectsBadWord pins that Wait validates the return
// word instead of slicing with it: the fabric answers an unknown call ID
// with the ^0 sentinel, and an out-of-range index or length names no
// image either.
func TestPoolConnWaitRejectsBadWord(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	b, err := c.req.SubmitV([]core.VecCall{{ID: opServeHTTP + 7}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := (PendingResponse{c: c, b: b}).Wait(); !errors.Is(err, ErrBadResponse) || resp != nil {
		t.Fatalf("Wait on the bad-call-ID sentinel = (%d bytes, %v), want ErrBadResponse", len(resp), err)
	}

	if resp, err := c.Do(getIndex); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
		t.Fatalf("the connection must survive a bad word: (%.40q, %v)", resp, err)
	}

	notFound := len(s.images[imgNotFound])
	for _, tc := range []struct {
		name string
		word uint64
		ok   bool
	}{
		{"whole image", porting.PackData(imgNotFound, notFound), true},
		{"empty prefix", porting.PackData(imgIndex, 0), true},
		{"length one past the image", porting.PackData(imgNotFound, notFound+1), false},
		{"index one past the set", porting.PackData(len(s.images), 0), false},
		{"bad-call-ID sentinel", ^uint64(0), false},
	} {
		if resp, err := s.response(tc.word); (err == nil) != tc.ok || !tc.ok && !errors.Is(err, ErrBadResponse) {
			t.Errorf("response(%s) = (%d bytes, %v), want ok=%v", tc.name, len(resp), err, tc.ok)
		}
	}
}

// TestPoolServerForgedCallWord posts call words no connection writes — a
// slot one past the window, a slot with the high word's top bit set, a
// length one past the buffer — straight to the fabric, as a hostile
// untrusted side can.  Each must be answered with the 400 image by a
// responder that goes on serving.
func TestPoolServerForgedCallWord(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	for _, tc := range []struct {
		name string
		word uint64
	}{
		{"slot 16", porting.Window<<32 | 16},
		{"slot 1<<31", 1<<31<<32 | 16},
		{"n = cap+1", readCap + 1},
	} {
		ret, err := c.req.Call(opServeHTTP, tc.word)
		if err == nil {
			var resp []byte
			resp, err = s.response(ret)
			if err == nil && !strings.HasPrefix(string(resp), "HTTP/1.0 400 Bad Request\r\n") {
				err = fmt.Errorf("answered %.40q", resp)
			}
		}
		if err != nil {
			t.Errorf("%s: %v, want the 400 image", tc.name, err)
		}
	}
	if resp, err := c.Do(getIndex); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
		t.Fatalf("the server must survive forged words: (%.40q, %v)", resp, err)
	}
}

// FuzzCallWord submits a fuzzed call word to a connection whose slot
// buffers hold earlier requests.  Every answer names a response image
// (never ErrBadResponse); a word naming no slot, or a length past the
// buffer, is answered with the 400 image.  The handler never panics, and
// the server answers a real request afterwards.
func FuzzCallWord(f *testing.F) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	f.Cleanup(s.Stop)
	c := s.Conn(0)
	for i := 0; i < porting.Window; i++ {
		if _, err := c.Do(getIndex); err != nil {
			f.Fatal(err)
		}
	}
	for _, word := range []uint64{0, porting.PackData(0, len(getIndex)), porting.PackData(5, len(getIndex)-2), porting.PackData(porting.Window-1, readCap),
		porting.Window<<32 | 16, 1<<31<<32 | 16, readCap + 1, ^uint64(0)} {
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint64) {
		ret, err := c.req.Call(opServeHTTP, word)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.response(ret)
		if err != nil {
			t.Fatalf("word %#x = %#x: %v", word, ret, err)
		}
		if slot, n := porting.UnpackData(word); (slot >= porting.Window || n > readCap) && !strings.HasPrefix(string(resp), "HTTP/1.0 400 Bad Request\r\n") {
			t.Fatalf("word %#x answered %.40q, want the 400 image", word, resp)
		}
		if resp, err := c.Do(getIndex); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
			t.Fatalf("the server must survive word %#x: (%.40q, %v)", word, resp, err)
		}
	})
}

// BenchmarkPoolServerThroughput measures the fabric-routed HTTP request
// path with a pipelined connection — the number the scaling experiment
// in internal/bench normalizes against.
func BenchmarkPoolServerThroughput(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{Timeout: 1 << 20})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	b.ResetTimer()
	pending := make([]PendingResponse, 0, porting.Window)
	for i := 0; i < b.N; {
		for len(pending) < porting.Window && i < b.N {
			pr, err := c.Submit(getIndex)
			if err != nil {
				b.Fatal(err)
			}
			pending = append(pending, pr)
			i++
		}
		for _, pr := range pending {
			if _, err := pr.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		pending = pending[:0]
	}
}

// BenchmarkPoolConnDo measures the synchronous request path — one
// request in flight, each waiting out its own round trip.  awake is what
// a closed-loop client (the repo benchmark's web_paced set-up) pays: the
// responder stays on its ladder and every request is a cross-thread
// HotCall.  parked is what a paced arrival (web_paced proper) pays: each
// request is timed on its own, after an untimed wait for the responder to
// park and its thread to go idle, so the connection runs it inline.
func BenchmarkPoolConnDo(b *testing.B) {
	boot := func(b *testing.B) (*PoolServer, *PoolConn) {
		s := NewPoolServer(1, core.PoolOptions{Timeout: 1 << 20})
		s.Start()
		b.Cleanup(s.Stop)
		return s, s.Conn(0)
	}
	b.Run("awake", func(b *testing.B) {
		_, c := boot(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Do(getIndex); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parked", func(b *testing.B) {
		s, c := boot(b)
		var busy time.Duration
		for i := 0; i < b.N; i++ {
			for s.Pool().SleepingResponders() == 0 {
				runtime.Gosched()
			}
			for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
			}
			t0 := time.Now()
			_, err := c.Do(getIndex)
			busy += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "ns/op")
	})
}

// BenchmarkRoute prices route alone, the scan every request body starts
// with: on the web_paced head, and on one whose request-line fields are
// separated by U+3000 and U+00A0, the bytes that make the scanner decode
// a rune.
func BenchmarkRoute(b *testing.B) {
	for _, tc := range []struct{ name, head string }{
		{"getIndex", getIndex},
		{"unicode-space", "GET\u3000/index.html\u00a0HTTP/1.0\r\nHost: sim\r\n\r\n"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			buf := []byte(tc.head)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if status, _, _ := route(buf, uint64(len(buf))); status != 200 {
					b.Fatalf("route(%q) = %d, want 200", tc.head, status)
				}
			}
		})
	}
}
