package openvpn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// testVPNOpts sizes the ring to a Stream window and gives submissions
// patience.
func testVPNOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		SlotsPerShard: vpnWindow,
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

func TestPoolTunnelStreamWindow(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	payloads := make([][]byte, vpnWindow)
	for round := 0; round < 4; round++ {
		for i := range payloads {
			payloads[i] = testPayload(IperfPayload, round*vpnWindow+i)
		}
		n, err := c.Stream(payloads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != vpnWindow {
			t.Fatalf("round %d relayed %d, want %d", round, n, vpnWindow)
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
			payloads := make([][]byte, vpnWindow)
			for round := 0; round < 100; round++ {
				for i := range payloads {
					payloads[i] = testPayload(512, ci*1000+round*vpnWindow+i)
				}
				if n, err := c.Stream(payloads); err != nil || n != vpnWindow {
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

// TestPoolTunnelEPCAttribution checks what the port itself says about
// paging — the ring's SetTouch hook at work: every relayed datagram
// touches the pages behind its two slab windows (header and body, one
// page each at MTU size), placed by connection and slab and charged to the
// connection.  (That the armed model reaches the registry, the monitor
// and /debug/epc is the kit's test, porting.TestFabricKitAllArmed.)
func TestPoolTunnelEPCAttribution(t *testing.T) {
	s := NewPoolServer(2, testVPNOpts(2))
	s.Arm(porting.Observers{EPCBytes: 256 * epc.PageSize})
	s.Start()
	defer s.Stop()

	const forwards = 32
	for conn := 0; conn < 2; conn++ {
		c := s.Conn(conn)
		for i := 0; i < forwards; i++ {
			if _, err := c.Stream([][]byte{testPayload(IperfPayload, conn*100+i)}); err != nil {
				t.Fatalf("conn %d forward %d: %v", conn, i, err)
			}
		}
	}

	if touches, _, _ := s.EPCManager().Stats(); touches != 2*2*forwards {
		t.Errorf("touches = %d, want %d (two windows per datagram)", touches, 2*2*forwards)
	}
	snap := s.EPC().Snapshot()
	if snap == nil || len(snap.Owners) != 2 {
		t.Fatalf("owner table: %+v", snap)
	}
	for _, o := range snap.Owners {
		if o.Faults == 0 {
			t.Errorf("owner %s faulted nothing: its slabs map to its own pages", o.Label)
		}
	}
}

// TestPoolTunnelFlightBytes checks that a zero-copy call stamps its
// payload volume on its flight record: with every call sampled, each
// Stream frame, alone or in a full window, carries its sealed frame's
// bytes.
func TestPoolTunnelFlightBytes(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(2))
	rec := flight.New(flight.Options{SampleEvery: 1})
	s.Arm(porting.Observers{Registry: telemetry.New(), Flight: rec})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	const forwards = 8
	payload := testPayload(1024, 3)
	for i := 0; i < forwards; i++ {
		if _, err := c.Stream([][]byte{payload}); err != nil {
			t.Fatal(err)
		}
	}
	window := make([][]byte, vpnWindow)
	for i := range window {
		window[i] = payload
	}
	if n, err := c.Stream(window); n != vpnWindow || err != nil {
		t.Fatalf("Stream = (%d, %v), want (%d, nil)", n, err, vpnWindow)
	}

	frameBytes := uint64(FrameOverhead + len(payload))
	calls := map[string]int{}
	for _, v := range rec.Records(forwards + vpnWindow) {
		calls[v.Name]++
		if v.Bytes != frameBytes {
			t.Errorf("%s record carries %d bytes, want %d", v.Name, v.Bytes, frameBytes)
		}
	}
	if calls["vpn.stream"] != forwards+vpnWindow || len(calls) != 1 {
		t.Errorf("records per callsite = %v, want %d vpn.stream", calls, forwards+vpnWindow)
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
