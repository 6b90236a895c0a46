package openvpn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// testVPNOpts sizes the ring to a Stream window and gives submissions
// patience.
func testVPNOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		MaxResponders: maxResponders,
		Timeout:       1 << 20,
	}
}

func testPayload(n, tag int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i ^ tag)
	}
	return p
}

func TestPoolTunnelForward(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	// Stream verifies each relayed frame: its length, its MAC and the
	// payload it carries.
	for i := 0; i < 20; i++ {
		payload := testPayload(IperfPayload, i)
		if n, err := c.Stream([][]byte{payload}); n != 1 || err != nil {
			t.Fatalf("forward %d: Stream = (%d, %v)", i, n, err)
		}
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked: %d free of %d", free, c.ring.Slabs())
	}
}

func TestPoolTunnelTamperDrop(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	slab, segs, err := c.sealInto(testPayload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext bit in the slab — a tampered datagram.
	c.ring.Bytes(segs[1])[10] ^= 0x01
	ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Segs: segs[:]})
	c.ring.Release(slab)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("tampered frame = (%#x, %v), want sentinel", ret, err)
	}

	// A malformed descriptor list (no header segment) is also dropped.
	slab2, segs2, err := c.sealInto(testPayload(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ret, err = c.req.CallV(core.VecCall{ID: opTunnel, Segs: segs2[1:]})
	c.ring.Release(slab2)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("headerless frame = (%#x, %v), want sentinel", ret, err)
	}
}

// TestClocksAgree sends one frame sequence through the simulated Server
// and through the fabric's PoolServer.tunnel: in order, a duplicate ID,
// reordered inside the replay window (both edges of it), older than the
// window, a tampered MAC followed by the untampered frame, and a frame
// shorter than its header.  The two clocks run one receive rule, so they
// accept and drop the same frames and forward the same payload bytes.
func TestClocksAgree(t *testing.T) {
	type frame struct {
		id     uint32
		tamper bool
		short  bool
		accept bool
	}
	seq := []frame{
		{id: 1, accept: true}, {id: 2, accept: true}, {id: 2},
		{id: 10, accept: true}, {id: 7, accept: true},
		{id: 100, accept: true}, {id: 36}, {id: 37, accept: true}, {id: 30},
		{id: 101, tamper: true}, {id: 101, accept: true},
		{short: true}, {id: 102, accept: true},
	}
	// build seals frame i under the receiver's keys with its packet ID.
	build := func(seal *Cipher, i int) []byte {
		f := seq[i]
		if f.short {
			return testPayload(FrameOverhead-1, i)
		}
		payload := testPayload(100+i, i)
		buf := make([]byte, FrameOverhead+len(payload))
		seal.nextID = f.id
		seal.Seal(buf, payload)
		if f.tamper {
			buf[FrameOverhead+3] ^= 0x10
		}
		return buf
	}

	sim1 := NewServer(porting.SGX)
	simSeal := SessionCipher()
	fab := NewPoolServer(1, testVPNOpts(1))
	fab.Start()
	defer fab.Stop()
	c := fab.Conn(0)
	fabSeal, _ := connCiphers(0)
	_, fabVerify := connCiphers(0) // the peer's receive keys for the relayed output
	var clk sim.Clock
	for i, f := range seq {
		// Simulated clock: the frame lands on the transport and one
		// event runs; an accepted payload is left in plainBuf.
		dropped, forwarded := sim1.Dropped(), sim1.ForwardedBytes()
		if err := sim1.App.Kernel.Inject(sim1.udpFD, build(simSeal, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sim1.App.Call(&clk, "ecall_process_event", sdk.Scalar(0), sdk.Scalar(0)); err != nil {
			t.Fatal(err)
		}
		var simGot []byte
		if sim1.Dropped() == dropped {
			simGot = bytes.Clone(sim1.plainBuf.Data[:sim1.ForwardedBytes()-forwarded])
		}

		// Fabric: the frame lands in a slab as header and body segments
		// (one segment when it is shorter than a header); an accepted
		// frame comes back re-sealed for the peer.
		slab, buf, ok := c.ring.Acquire()
		if !ok {
			t.Fatal("no free slab")
		}
		n := copy(buf, build(fabSeal, i))
		segs := []core.Segment{{Slab: slab, Len: uint32(n)}}
		if n >= FrameOverhead {
			segs = []core.Segment{{Slab: slab, Len: FrameOverhead}, {Slab: slab, Off: FrameOverhead, Len: uint32(n - FrameOverhead)}}
		}
		ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Segs: segs})
		if err != nil {
			t.Fatal(err)
		}
		var fabGot []byte
		if ret != ^uint64(0) {
			out := make([]byte, slabFrameCap)
			m, err := fabVerify.Open(out, c.ring.Slab(slab)[:ret])
			if err != nil {
				t.Fatalf("frame %d: relayed output does not open: %v", i, err)
			}
			fabGot = out[:m]
		}
		c.ring.Release(slab)

		if (simGot != nil) != (fabGot != nil) || !bytes.Equal(simGot, fabGot) {
			t.Fatalf("frame %d (%+v): simulated forwarded %d bytes, fabric %d bytes, or the bytes differ", i, f, len(simGot), len(fabGot))
		}
		if (simGot != nil) != f.accept {
			t.Fatalf("frame %d (%+v): both clocks accepted=%v", i, f, simGot != nil)
		}
		if f.accept && !bytes.Equal(simGot, testPayload(100+i, i)) {
			t.Fatalf("frame %d: forwarded payload is not the one sealed", i)
		}
	}
}

func TestPoolTunnelStreamWindow(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	payloads := make([][]byte, porting.Window)
	for round := 0; round < 4; round++ {
		for i := range payloads {
			payloads[i] = testPayload(IperfPayload, round*porting.Window+i)
		}
		n, err := c.Stream(payloads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != porting.Window {
			t.Fatalf("round %d relayed %d, want %d", round, n, porting.Window)
		}
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked after streaming: %d free of %d", free, c.ring.Slabs())
	}
}

// TestPoolTunnelConcurrentConnections streams 100 windows on each of
// four connections at once: enough control windows for the controller
// to grow the pool past one responder on two Ps, so responders and
// helping requesters race for the same runs, and the in-place handler
// turns any double execution into a failed MAC.
func TestPoolTunnelConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, testVPNOpts(3))
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
			payloads := make([][]byte, porting.Window)
			for round := 0; round < 100; round++ {
				for i := range payloads {
					payloads[i] = testPayload(512, ci*1000+round*porting.Window+i)
				}
				if n, err := c.Stream(payloads); err != nil || n != porting.Window {
					errs <- fmt.Errorf("conn %d round %d: (%d, %v)", ci, round, n, err)
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

// rxWindow reads connection 0's receive replay window under its lock.
func rxWindow(s *PoolServer) replayWindow {
	t := s.tunnels[0]
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rx.win
}

// TestPoolServerForgedCallWord posts the tunnel calls a hostile
// untrusted side can forge — every descriptor inside the connection's
// own ring, so each reaches the handler — and requires the ^0 sentinel
// for each, no panic, and a receive replay window the forgeries left
// untouched: a frame sealed before them is still accepted after.
func TestPoolServerForgedCallWord(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	// A stale packet ID: one authentic frame, relayed once, then posted
	// again byte for byte.
	slab, segs, err := c.sealInto(testPayload(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(c.ring.Slab(slab)[:FrameOverhead+64])
	if ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Segs: segs[:]}); err != nil || ret != FrameOverhead+64 {
		t.Fatalf("authentic frame = (%d, %v)", ret, err)
	}
	copy(c.ring.Slab(slab), frame)
	accepted := rxWindow(s)

	// A fresh authentic frame, held back until the forgeries are done.
	fresh, fsegs, err := c.sealInto(testPayload(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	hdr, body := fsegs[0], fsegs[1]
	for _, tc := range []struct {
		name string
		segs []core.Segment
	}{
		{"stale packet ID", segs[:]},
		{"0 segments", nil},
		{"1 segment", []core.Segment{hdr}},
		{"3 segments", []core.Segment{hdr, body, {Slab: fresh, Off: 0, Len: 1}}},
		{"header Len != FrameOverhead", []core.Segment{
			{Slab: fresh, Off: 0, Len: FrameOverhead - 1},
			{Slab: fresh, Off: FrameOverhead - 1, Len: body.Len + 1}}},
		{"overlapping header and body", []core.Segment{hdr, {Slab: fresh, Off: FrameOverhead / 2, Len: body.Len}}},
	} {
		ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Segs: tc.segs})
		if err != nil || ret != ^uint64(0) {
			t.Errorf("%s: (%#x, %v), want the sentinel", tc.name, ret, err)
		}
		if w := rxWindow(s); w != accepted {
			t.Errorf("%s moved the replay window: %+v, want %+v", tc.name, w, accepted)
		}
	}
	if ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Segs: fsegs[:]}); err != nil || ret != FrameOverhead+64 {
		t.Fatalf("the frame sealed before the forgeries = (%d, %v), want it relayed", ret, err)
	}
	c.ring.Release(slab)
	c.ring.Release(fresh)
	if _, err := c.Stream([][]byte{testPayload(IperfPayload, 3)}); err != nil {
		t.Fatalf("the server must survive forged words: %v", err)
	}
}

// FuzzCallWord posts a tunnel call with up to MaxSegs+1 fuzzed
// descriptors and a fuzzed data word.  No input can carry the receive
// key's MAC, so whatever the descriptors address — in the ring or not,
// overlapping, over a relayed frame — the answer is the sentinel (or
// ErrTooManySegments before anything is posted), the handler does not
// panic and the replay window does not move.
func FuzzCallWord(f *testing.F) {
	s := NewPoolServer(1, testVPNOpts(1))
	s.Start()
	f.Cleanup(s.Stop)
	c := s.Conn(0)
	if _, err := c.Stream([][]byte{testPayload(IperfPayload, 0)}); err != nil {
		f.Fatal(err) // leaves a relayed frame in slab 0
	}
	accepted := rxWindow(s)

	// Each descriptor is 6 bytes: slab, offset (2), length (2), spare.
	desc := func(segs ...core.Segment) []byte {
		var b []byte
		for _, sg := range segs {
			b = append(b, byte(sg.Slab), byte(sg.Off>>8), byte(sg.Off), byte(sg.Len>>8), byte(sg.Len), 0)
		}
		return b
	}
	f.Add(uint64(0), uint8(0), []byte(nil))
	f.Add(uint64(0), uint8(2), desc(core.Segment{Len: FrameOverhead}, core.Segment{Off: FrameOverhead, Len: IperfPayload}))
	f.Add(uint64(1), uint8(2), desc(core.Segment{Len: FrameOverhead}, core.Segment{Off: 1, Len: 64}))
	f.Add(^uint64(0), uint8(3), desc(core.Segment{Len: FrameOverhead}, core.Segment{Off: FrameOverhead, Len: 8}, core.Segment{Slab: 1}))
	f.Add(uint64(7), uint8(2), desc(core.Segment{Slab: 255, Len: FrameOverhead}, core.Segment{Off: 0xffff, Len: 0xffff}))
	f.Add(uint64(0), uint8(core.MaxSegs+1), desc(core.Segment{}, core.Segment{}, core.Segment{}, core.Segment{}, core.Segment{}))
	f.Fuzz(func(t *testing.T, data uint64, nseg uint8, raw []byte) {
		segs := make([]core.Segment, int(nseg)%(core.MaxSegs+2))
		for i := range segs {
			if len(raw) >= 6*(i+1) {
				d := raw[6*i:]
				segs[i] = core.Segment{Slab: uint32(d[0]), Off: uint32(d[1])<<8 | uint32(d[2]), Len: uint32(d[3])<<8 | uint32(d[4])}
			}
		}
		ret, err := c.req.CallV(core.VecCall{ID: opTunnel, Data: data, Segs: segs})
		switch {
		case len(segs) > core.MaxSegs:
			if !errors.Is(err, core.ErrTooManySegments) {
				t.Fatalf("%d segments: err %v, want ErrTooManySegments", len(segs), err)
			}
		case err != nil || ret != ^uint64(0):
			t.Fatalf("forged call %+v = (%#x, %v), want the sentinel", segs, ret, err)
		}
		if w := rxWindow(s); w != accepted {
			t.Fatalf("forged call %+v moved the replay window: %+v, want %+v", segs, w, accepted)
		}
	})
}
