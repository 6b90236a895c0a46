package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/sim"
)

// testPoolOpts sizes the ring to a connection window and gives
// submissions patience.
func testPoolOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
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

// TestClocksAgree sends one SET/GET/DELETE sequence through the
// simulated Server and through the fabric's PoolConn.Do: the two clocks
// run one request body, so they answer with the same statuses and
// values.
func TestClocksAgree(t *testing.T) {
	long, short := bytes.Repeat([]byte{0x5c}, ValueSize), []byte("v")
	seq := []Request{
		{Op: OpGet, Key: "k"},
		{Op: OpSet, Key: "k", Value: long},
		{Op: OpGet, Key: "k"},
		{Op: OpSet, Key: "k", Value: short},
		{Op: OpGet, Key: "k"},
		{Op: OpSet, Key: "k", Value: long},
		{Op: OpGet, Key: "k"},
		{Op: OpDelete, Key: "k"},
		{Op: OpGet, Key: "k"},
		{Op: OpDelete, Key: "k"},
		{Op: OpSet, Key: "empty"},
		{Op: OpGet, Key: "empty"},
	}
	sim1 := NewServer(porting.SGX)
	fab := NewPoolServer(1, testPoolOpts(1))
	fab.Start()
	defer fab.Stop()
	pkt := make([]byte, bufCap)
	var clk sim.Clock
	for i := range seq {
		seq[i].Opaque = uint32(i)
		n, err := EncodeRequest(pkt, &seq[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := sim1.App.Kernel.Inject(sim1.connFD, pkt[:n]); err != nil {
			t.Fatal(err)
		}
		sim1.ServeOne(&clk)
		raw, _ := sim1.App.Kernel.TakeRX(sim1.ClientFD)
		want, err := DecodeResponse(raw)
		if err != nil {
			t.Fatalf("request %d: simulated server: %v", i, err)
		}
		got, err := fab.Conn(0).Do(&seq[i])
		if err != nil {
			t.Fatalf("request %d: fabric: %v", i, err)
		}
		if got.Op != want.Op || got.Status != want.Status || got.Opaque != want.Opaque || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("request %d (op %#x): fabric %+v, simulated %+v", i, seq[i].Op, got, want)
		}
	}
}

func TestPoolServerPipelinedWindow(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	// Fill the window, then collect FIFO; responses must match opaques.
	pending := make([]PendingResponse, 0, porting.Window)
	for i := 0; i < porting.Window; i++ {
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
// core.ErrWindowFull sentinel, allocating nothing, and the window moves
// again once the oldest request is collected.
func TestPoolConnWindowFull(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	get := &Request{Op: OpGet, Key: "absent"}

	var pending [porting.Window]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(get); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(get); !errors.Is(err, core.ErrWindowFull) {
		t.Fatalf("submit into a full window: err = %v, want core.ErrWindowFull", err)
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

// TestPoolConnOutOfOrderCollect collects the newest of a full window
// first: the next Submit would reuse the buffer slot of the oldest
// request, still uncollected, so it is refused, and every request then
// collects its own response.  The options are the programs' own
// (core.PoolOptions{}).
func TestPoolConnOutOfOrderCollect(t *testing.T) {
	s := NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	var pending [porting.Window]PendingResponse
	for i := range pending {
		var err error
		if pending[i], err = c.Submit(&Request{Op: OpGet, Key: "absent", Opaque: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pending[porting.Window-1].Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(&Request{Op: OpGet, Key: "absent", Opaque: 100}); !errors.Is(err, core.ErrWindowFull) {
		t.Fatalf("submit into the uncollected slot 0: err = %v, want core.ErrWindowFull", err)
	}
	for i, pr := range pending[:porting.Window-1] {
		resp, err := pr.Wait()
		if err != nil || resp.Opaque != uint32(i) {
			t.Fatalf("request %d collected (%+v, %v), want its own opaque", i, resp, err)
		}
	}
	if _, err := c.Do(&Request{Op: OpGet, Key: "absent"}); err != nil {
		t.Fatalf("submit after collecting all: %v", err)
	}
}

// TestPoolConnWindowModel drives one connection with seeded Submits and
// Waits, collecting in random order, against a sequential model of its
// porting.Window-slot ring: a Submit fails with core.ErrWindowFull, and
// allocates nothing, exactly when the model's next slot holds an
// uncollected request; every other Submit takes that slot, and every
// response carries its own request's Opaque, op, status and value.
func TestPoolConnWindowModel(t *testing.T) {
	const keys = 8
	valueOf := func(k int) []byte { return bytes.Repeat([]byte{byte(k + 1)}, 1+k*300) }
	type inflight struct {
		pr     PendingResponse
		req    Request
		status uint16
		value  []byte
		pos    int
	}
	for seed := uint64(1); seed <= 3; seed++ {
		s := NewPoolServer(1, testPoolOpts(1))
		s.Start()
		c := s.Conn(0)
		for k := 0; k < keys; k++ {
			if _, err := c.Do(&Request{Op: OpSet, Key: fmt.Sprint("key-", k), Value: valueOf(k)}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewPCG(seed, 53))
		var uncollected [porting.Window]bool
		var pending []inflight
		head, refused := 0, 0
		for step := 0; step < 3000; step++ {
			if len(pending) > 0 && rng.IntN(5) >= 3 {
				i := rng.IntN(len(pending))
				f := pending[i]
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				resp, err := f.pr.Wait()
				uncollected[f.pos%porting.Window] = false
				if err != nil || resp.Opaque != f.req.Opaque || resp.Op != f.req.Op || resp.Status != f.status || !bytes.Equal(resp.Value, f.value) {
					t.Fatalf("seed %d step %d: request %+v collected (%+v, %v)", seed, step, f.req, resp, err)
				}
				continue
			}
			k := rng.IntN(keys)
			f := inflight{req: Request{Op: OpGet, Key: fmt.Sprint("key-", k), Opaque: uint32(step)}, value: valueOf(k)}
			switch rng.IntN(3) {
			case 1:
				f.req.Key, f.status, f.value = "absent", StatusNotFound, nil
			case 2: // the value the key holds, so every GET's answer stays known
				f.req.Op, f.req.Value, f.value = OpSet, valueOf(k), nil
			}
			pr, err := c.Submit(&f.req)
			if uncollected[head%porting.Window] {
				if !errors.Is(err, core.ErrWindowFull) {
					t.Fatalf("seed %d step %d: Submit into uncollected slot %d: err = %v, want ErrWindowFull", seed, step, head%porting.Window, err)
				}
				if n := testing.AllocsPerRun(1, func() { c.Submit(&f.req) }); n != 0 {
					t.Fatalf("seed %d step %d: a refused Submit allocates %v times", seed, step, n)
				}
				refused++
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: Submit into collected slot %d: %v", seed, step, head%porting.Window, err)
			}
			f.pr, f.pos = pr, head
			uncollected[head%porting.Window] = true
			head++
			pending = append(pending, f)
		}
		for _, f := range pending {
			if resp, err := f.pr.Wait(); err != nil || resp.Opaque != f.req.Opaque {
				t.Fatalf("seed %d: draining %+v: (%+v, %v)", seed, f.req, resp, err)
			}
		}
		s.Stop()
		if refused == 0 {
			t.Errorf("seed %d: no Submit met an uncollected slot", seed)
		}
	}
}

func TestPoolServerConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, testPoolOpts(3))
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

// TestPoolStoreConcurrentWholeValues has four connections, served by up
// to two responders, SET and GET one shared set of keys in pipelined
// windows.  Every value is self-describing — each byte is the writer's
// tag, and the tag sets the length — so overwrites in place run both
// shorter and longer, and every GET must return one whole value that
// some SET wrote: never a mix of two writers, never a torn length.
func TestPoolStoreConcurrentWholeValues(t *testing.T) {
	const conns, keys, windows = 4, 8, 500
	s := NewPoolServer(conns, testPoolOpts(2))
	s.Start()
	defer s.Stop()
	valueOf := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 1+int(tag)*8) }
	for k := 0; k < keys; k++ {
		if _, err := s.Conn(0).Do(&Request{Op: OpSet, Key: fmt.Sprint("shared-", k), Value: valueOf(0)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := s.Conn(ci)
			var reqs [porting.Window]Request
			var pending [porting.Window]PendingResponse
			for w := 0; w < windows; w++ {
				for j := range reqs {
					reqs[j] = Request{Op: OpGet, Key: fmt.Sprint("shared-", (ci+w+j)%keys)}
					if j%3 == 0 {
						reqs[j].Op, reqs[j].Value = OpSet, valueOf(byte(ci<<6|(w+j)&63))
					}
					var err error
					if pending[j], err = c.Submit(&reqs[j]); err != nil {
						errs <- err
						return
					}
				}
				for j := range pending {
					resp, err := pending[j].Wait()
					if err != nil || resp.Status != StatusOK {
						errs <- fmt.Errorf("conn %d window %d request %d: (%+v, %v)", ci, w, j, resp, err)
						return
					}
					if v := resp.Value; reqs[j].Op == OpGet && (len(v) == 0 || !bytes.Equal(v, valueOf(v[0]))) {
						errs <- fmt.Errorf("conn %d GET %s returned %d bytes that no SET wrote", ci, reqs[j].Key, len(v))
						return
					}
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
	slot, _ := c.req.Next()
	c.bufs[slot].req[0] = 0x55 // bad magic after EncodeRequest would have set 0x80
	ret, err := c.req.Call(opServe, porting.PackData(slot, HeaderSize))
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
		{"slot 16", porting.Window<<32 | HeaderSize},
		{"slot 1<<31", 1<<31<<32 | HeaderSize},
		{"n = cap+1", bufCap + 1},
	} {
		if ret, err := c.req.Call(opServe, tc.word); err != nil || ret != ^uint64(0) {
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
	for i := 0; i < porting.Window; i++ {
		if _, err := c.Do(&Request{Op: OpSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			f.Fatal(err)
		}
	}
	for _, word := range []uint64{0, porting.PackData(0, HeaderSize), porting.PackData(3, HeaderSize+3), porting.PackData(porting.Window-1, bufCap),
		porting.Window<<32 | HeaderSize, 1<<31<<32 | HeaderSize, bufCap + 1, ^uint64(0)} {
		f.Add(word)
	}
	f.Fuzz(func(t *testing.T, word uint64) {
		ret, err := c.req.Call(opServe, word)
		if err != nil {
			t.Fatal(err)
		}
		if slot, n := porting.UnpackData(word); (slot >= porting.Window || n > bufCap) && ret != ^uint64(0) {
			t.Fatalf("word %#x = %#x, want the sentinel", word, ret)
		} else if ret != ^uint64(0) && ret > bufCap {
			t.Fatalf("word %#x = %#x, past the %d-byte response buffer", word, ret, bufCap)
		}
		if resp, err := c.Do(&Request{Op: OpGet, Key: "k0"}); err != nil || resp.Status != StatusOK {
			t.Fatalf("the server must survive word %#x: (%+v, %v)", word, resp, err)
		}
	})
}

// BenchmarkPoolServerThroughput is the repo benchmark's kv_pipelined
// traffic by layer: one connection keeps 16-deep windows in flight over
// 4096 keys of 2 KB, 90 % GET / 10 % SET, with the keys of a window
// distinct (responders may run a window's calls out of order).  One op is
// one request.
func BenchmarkPoolServerThroughput(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{Timeout: 1 << 20})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	val := bytes.Repeat([]byte{0xCD}, ValueSize)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%016x-%04d", uint64(i)*0x9e3779b97f4a7c15, i)
		if _, err := c.Do(&Request{Op: OpSet, Key: keys[i], Value: val}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(1, 1))
	reqs := make([]Request, 1<<14) // whole windows
	for i := range reqs {
	redraw:
		k := keys[rng.IntN(len(keys))]
		for _, r := range reqs[i&^(porting.Window-1) : i] {
			if r.Key == k {
				goto redraw
			}
		}
		reqs[i] = Request{Op: OpGet, Key: k}
		if rng.IntN(10) == 0 {
			reqs[i].Op, reqs[i].Value = OpSet, val
		}
	}
	var pending [porting.Window]PendingResponse
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += porting.Window {
		for j := range pending {
			var err error
			if pending[j], err = c.Submit(&reqs[(n+j)&(len(reqs)-1)]); err != nil {
				b.Fatal(err)
			}
		}
		for j := range pending {
			if resp, err := pending[j].Wait(); err != nil || resp.Status != StatusOK {
				b.Fatalf("request %d = (%+v, %v)", n+j, resp, err)
			}
		}
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
