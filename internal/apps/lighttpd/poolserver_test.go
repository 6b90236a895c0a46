package lighttpd

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/telemetry"
)

// testPoolOpts sizes the ring to a connection window and gives
// submissions patience.
func testPoolOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		SlotsPerShard: connWindow,
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
	s.AddDocument("/doc", []byte("hello"))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	resp, err := c.Do("HEAD /doc HTTP/1.0\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "HTTP/1.0 200 OK\r\n") || bytes.Contains(resp, []byte("hello")) {
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

func TestPoolServerConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, testPoolOpts(3))
	s.Arm(porting.Observers{Registry: telemetry.New()})
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		c := s.Conn(ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			pending := make([]PendingResponse, 0, connWindow)
			served := 0
			for served < 300 {
				for len(pending) < connWindow {
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
// bounded by any response buffer: a 64 KB body comes back whole over GET,
// its head alone over HEAD, with a full window of them in flight.
func TestPoolServerServesLargeDocument(t *testing.T) {
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	s := NewPoolServer(1, testPoolOpts(1))
	s.AddDocument("/large", body)
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	head := ResponseHead(200, len(body))
	for _, tc := range []struct {
		raw  string
		want []byte
	}{
		{"GET /large HTTP/1.0\r\n\r\n", append([]byte(head), body...)},
		{"HEAD /large HTTP/1.0\r\n\r\n", []byte(head)},
	} {
		var pending [connWindow]PendingResponse
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
// uncollected request fails with ErrWindowFull and collecting one makes
// room again.
func TestPoolConnWindowFull(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	var pending [connWindow]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(getIndex); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(getIndex); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("submit into a full window: err = %v, want ErrWindowFull", err)
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

// TestPoolConnWaitRejectsBadWord pins that Wait validates the return
// word instead of slicing with it: the fabric answers an unknown call ID
// with the ^0 sentinel, and an out-of-range index or length names no
// image either.
func TestPoolConnWaitRejectsBadWord(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	pd, err := c.req.Submit(opServeHTTP+7, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.inflight++
	if resp, err := (PendingResponse{c: c, pd: pd}).Wait(); !errors.Is(err, ErrBadResponse) || resp != nil {
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
		{"whole image", packData(imgNotFound, notFound), true},
		{"empty prefix", packData(imgFirstDoc, 0), true},
		{"length one past the image", packData(imgNotFound, notFound+1), false},
		{"index one past the set", packData(len(s.images), 0), false},
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
		{"slot 16", connWindow<<32 | 16},
		{"slot 1<<31", 1<<31<<32 | 16},
		{"n = cap+1", readCap + 1},
	} {
		pd, err := c.req.Submit(opServeHTTP, tc.word)
		if err != nil {
			t.Fatal(err)
		}
		ret, err := pd.Wait()
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
	for i := 0; i < connWindow; i++ {
		if _, err := c.Do(getIndex); err != nil {
			f.Fatal(err)
		}
	}
	for _, word := range []uint64{0, packData(0, len(getIndex)), packData(5, len(getIndex)-2), packData(connWindow-1, readCap),
		connWindow<<32 | 16, 1<<31<<32 | 16, readCap + 1, ^uint64(0)} {
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint64) {
		pd, err := c.req.Submit(opServeHTTP, word)
		if err != nil {
			t.Fatal(err)
		}
		ret, err := pd.Wait()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.response(ret)
		if err != nil {
			t.Fatalf("word %#x = %#x: %v", word, ret, err)
		}
		if slot, n := unpackData(word); (slot >= connWindow || n > readCap) && !strings.HasPrefix(string(resp), "HTTP/1.0 400 Bad Request\r\n") {
			t.Fatalf("word %#x answered %.40q, want the 400 image", word, resp)
		}
		if resp, err := c.Do(getIndex); err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) {
			t.Fatalf("the server must survive word %#x: (%.40q, %v)", word, resp, err)
		}
	})
}

// TestPoolServerAddDocumentAfterStartPanics: the image set is fixed at
// Start, so a late AddDocument fails loudly rather than being ignored.
func TestPoolServerAddDocumentAfterStartPanics(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "AddDocument after Start") {
			t.Fatalf("AddDocument after Start: recovered %q, want the panic", msg)
		}
	}()
	s.AddDocument("/late", []byte("too late"))
}

// BenchmarkPoolServerThroughput measures the fabric-routed HTTP request
// path with a pipelined connection — the number the scaling experiment
// in internal/bench normalizes against.
func BenchmarkPoolServerThroughput(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{SlotsPerShard: connWindow, Timeout: 1 << 20})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	b.ResetTimer()
	pending := make([]PendingResponse, 0, connWindow)
	for i := 0; i < b.N; {
		for len(pending) < connWindow && i < b.N {
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
		s := NewPoolServer(1, core.PoolOptions{SlotsPerShard: connWindow, Timeout: 1 << 20})
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
