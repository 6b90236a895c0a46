package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

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

func TestPoolServerSetGetDelete(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	val := bytes.Repeat([]byte{0xAB}, ValueSize)
	resp, err := c.Do(&Request{Op: OpSet, Key: "k1", Value: val, Opaque: 7})
	if err != nil || resp.Status != StatusOK || resp.Opaque != 7 {
		t.Fatalf("SET = (%+v, %v)", resp, err)
	}
	resp, err = c.Do(&Request{Op: OpGet, Key: "k1", Opaque: 8})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("GET = (%+v, %v)", resp, err)
	}
	if !bytes.Equal(resp.Value, val) {
		t.Fatalf("GET value mismatch: %d bytes, want %d", len(resp.Value), len(val))
	}
	resp, err = c.Do(&Request{Op: OpGet, Key: "missing"})
	if err != nil || resp.Status != StatusNotFound {
		t.Fatalf("GET missing = (%+v, %v), want NotFound", resp, err)
	}
	resp, err = c.Do(&Request{Op: OpDelete, Key: "k1"})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("DELETE = (%+v, %v)", resp, err)
	}
	resp, err = c.Do(&Request{Op: OpGet, Key: "k1"})
	if err != nil || resp.Status != StatusNotFound {
		t.Fatalf("GET after DELETE = (%+v, %v), want NotFound", resp, err)
	}
}

func TestPoolServerPipelinedWindow(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	// Fill the window, then collect FIFO; responses must match opaques.
	pending := make([]PendingResponse, 0, connWindow)
	for i := 0; i < connWindow; i++ {
		pr, err := c.Submit(&Request{Op: OpSet, Key: fmt.Sprintf("k%d", i),
			Value: []byte{byte(i)}, Opaque: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pr)
	}
	if _, err := c.Submit(&Request{Op: OpGet, Key: "k0"}); err == nil {
		t.Fatal("Submit past the window succeeded")
	}
	for i, pr := range pending {
		resp, err := pr.Wait()
		if err != nil || resp.Opaque != uint32(i) {
			t.Fatalf("response %d = (%+v, %v)", i, resp, err)
		}
	}
}

// TestPoolConnWindowFull: a Submit into a full window fails with the
// ErrWindowFull sentinel, allocating nothing, and the window moves again
// once the oldest request is collected.
func TestPoolConnWindowFull(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	get := &Request{Op: OpGet, Key: "absent"}

	var pending [connWindow]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(get); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(get); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("submit into a full window: err = %v, want ErrWindowFull", err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Submit(get) }); n != 0 {
		t.Errorf("a refused Submit allocates %v times, want 0", n)
	}
	if _, err := pending[0].Wait(); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Submit(get)
	if err != nil {
		t.Fatalf("submit after collecting one: %v", err)
	}
	for _, pr := range append(pending[1:], pr) {
		if _, err := pr.Wait(); err != nil {
			t.Fatal(err)
		}
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
			val := bytes.Repeat([]byte{byte(ci)}, 64)
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("conn%d-key%d", ci, i%17)
				if resp, err := c.Do(&Request{Op: OpSet, Key: key, Value: val}); err != nil || resp.Status != StatusOK {
					errs <- fmt.Errorf("conn %d SET %d: (%+v, %v)", ci, i, resp, err)
					return
				}
				resp, err := c.Do(&Request{Op: OpGet, Key: key})
				if err != nil || resp.Status != StatusOK || !bytes.Equal(resp.Value, val) {
					errs <- fmt.Errorf("conn %d GET %d: (%+v, %v)", ci, i, resp, err)
					return
				}
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

func TestPoolServerMalformedPacketSentinel(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	// Corrupt the wire bytes under the API: plant garbage directly and
	// post it, as a broken client would.
	c.bufs[c.next].req[0] = 0x55 // bad magic after EncodeRequest would have set 0x80
	pd, err := c.req.Submit(opServe, packData(c.next, HeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	ret, err := pd.Wait()
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("malformed packet = (%#x, %v), want sentinel", ret, err)
	}
}

// TestPoolServerForgedCallWord posts call words no connection writes — a
// slot one past the window, a slot with the high word's top bit set, a
// length one past the buffer — straight to the fabric, as a hostile
// untrusted side can.  Each must get the malformed-packet sentinel from a
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
		{"slot 16", connWindow<<32 | HeaderSize},
		{"slot 1<<31", 1<<31<<32 | HeaderSize},
		{"n = cap+1", bufCap + 1},
	} {
		pd, err := c.req.Submit(opServe, tc.word)
		if err != nil {
			t.Fatal(err)
		}
		if ret, err := pd.Wait(); err != nil || ret != ^uint64(0) {
			t.Errorf("%s: (%#x, %v), want the sentinel", tc.name, ret, err)
		}
	}
	if resp, err := c.Do(&Request{Op: OpSet, Key: "k", Value: []byte("v")}); err != nil || resp.Status != StatusOK {
		t.Fatalf("the server must survive forged words: (%+v, %v)", resp, err)
	}
}

// FuzzCallWord submits a fuzzed call word to a connection whose slot
// buffers hold earlier requests.  A word naming no slot, or a length
// past the buffer, gets the sentinel; any other answer is the sentinel
// or a response length the slot's buffer holds.  The handler never
// panics, and the server answers a real request afterwards.
func FuzzCallWord(f *testing.F) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	f.Cleanup(s.Stop)
	c := s.Conn(0)
	for i := 0; i < connWindow; i++ {
		if _, err := c.Do(&Request{Op: OpSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			f.Fatal(err)
		}
	}
	for _, word := range []uint64{0, packData(0, HeaderSize), packData(3, HeaderSize+3), packData(connWindow-1, bufCap),
		connWindow<<32 | HeaderSize, 1<<31<<32 | HeaderSize, bufCap + 1, ^uint64(0)} {
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint64) {
		pd, err := c.req.Submit(opServe, word)
		if err != nil {
			t.Fatal(err)
		}
		ret, err := pd.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if slot, n := unpackData(word); (slot >= connWindow || n > bufCap) && ret != ^uint64(0) {
			t.Fatalf("word %#x = %#x, want the sentinel", word, ret)
		} else if ret != ^uint64(0) && ret > bufCap {
			t.Fatalf("word %#x = %#x, past the %d-byte response buffer", word, ret, bufCap)
		}
		if resp, err := c.Do(&Request{Op: OpGet, Key: "k0"}); err != nil || resp.Status != StatusOK {
			t.Fatalf("the server must survive word %#x: (%+v, %v)", word, resp, err)
		}
	})
}

// BenchmarkPoolServerThroughput measures the fabric-routed request path
// with pipelined SET/GET traffic on every connection — the number the
// scaling experiment in internal/bench normalizes against.
func BenchmarkPoolServerThroughput(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{SlotsPerShard: connWindow, Timeout: 1 << 20})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	val := bytes.Repeat([]byte{0xCD}, ValueSize)
	b.ResetTimer()
	pending := make([]PendingResponse, 0, connWindow)
	for i := 0; i < b.N; {
		for len(pending) < connWindow && i < b.N {
			req := Request{Op: OpGet, Key: "bench-key"}
			if i%2 == 0 {
				req = Request{Op: OpSet, Key: "bench-key", Value: val}
			}
			pr, err := c.Submit(&req)
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

// TestPoolGetReturnsWhatSetStored pins that a GET returns every byte a
// SET stored, up to the largest value a request buffer can carry — the
// value travels straight into the response buffer, which is as large.
func TestPoolGetReturnsWhatSetStored(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	const key = "k"
	largest := bufCap - HeaderSize - 8 - len(key) // header, SET extras, key
	for _, n := range []int{0, 1, ValueSize - 1, ValueSize, ValueSize + 1, 2100, largest} {
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(i*7 + n)
		}
		if resp, err := c.Do(&Request{Op: OpSet, Key: key, Value: val}); err != nil || resp.Status != StatusOK {
			t.Fatalf("SET %d B = (%+v, %v)", n, resp, err)
		}
		resp, err := c.Do(&Request{Op: OpGet, Key: key})
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("GET after SET %d B = (%+v, %v)", n, resp, err)
		}
		if !bytes.Equal(resp.Value, val) {
			t.Errorf("SET %d B, GET returned %d B (equal prefix: %v)", n, len(resp.Value),
				bytes.HasPrefix(val, resp.Value))
		}
	}
	if _, err := c.Do(&Request{Op: OpSet, Key: key, Value: make([]byte, largest+1)}); err == nil {
		t.Errorf("SET of %d B fit a %d B request buffer", largest+1, bufCap)
	}
}

// BenchmarkPoolConnDo is the synchronous request path of one connection
// under the repo benchmark's kv mix: 90 % GET / 10 % SET of 2 KB values
// over existing keys, one fabric round trip per request.
func BenchmarkPoolConnDo(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	val := bytes.Repeat([]byte{0xCD}, ValueSize)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%04d", i)
		if _, err := c.Do(&Request{Op: OpSet, Key: keys[i], Value: val}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Op: OpGet, Key: keys[i%len(keys)], Opaque: uint32(i)}
		if i%10 == 9 {
			req.Op, req.Value = OpSet, val
		}
		resp, err := c.Do(&req)
		if err != nil || resp.Status != StatusOK || resp.Opaque != uint32(i) {
			b.Fatalf("request %d = (%+v, %v)", i, resp, err)
		}
	}
}
