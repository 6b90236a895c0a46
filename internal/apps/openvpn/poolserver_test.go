package openvpn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// fastVPNOpts keeps adaptive transitions quick in tests.
func fastVPNOpts(maxResponders int) core.PoolOptions {
	return core.PoolOptions{
		SlotsPerShard: vpnWindow,
		MinResponders: 1,
		MaxResponders: maxResponders,
		Timeout:       1 << 20,
		ControlWindow: 8,
		SpinPasses:    2,
		YieldPasses:   4,
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
	s := NewPoolServer(1, fastVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	for i := 0; i < 20; i++ {
		payload := testPayload(IperfPayload, i)
		n, err := c.Forward(payload)
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if n != FrameOverhead+len(payload) {
			t.Fatalf("frame len = %d, want %d", n, FrameOverhead+len(payload))
		}
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked: %d free of %d", free, c.ring.Slabs())
	}
}

func TestPoolTunnelTamperDrop(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	slab, segs, err := c.sealInto(testPayload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext bit in the slab — a tampered datagram.
	c.ring.Bytes(segs[1])[10] ^= 0x01
	ret, err := c.req.CallZC(opTunnel, 0, segs[:])
	c.ring.Release(slab)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("tampered frame = (%#x, %v), want sentinel", ret, err)
	}

	// A malformed descriptor list (no header segment) is also dropped.
	slab2, segs2, err := c.sealInto(testPayload(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ret, err = c.req.CallZC(opTunnel, 0, segs2[1:])
	c.ring.Release(slab2)
	if err != nil || ret != ^uint64(0) {
		t.Fatalf("headerless frame = (%#x, %v), want sentinel", ret, err)
	}
}

func TestPoolTunnelStreamWindow(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
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

func TestPoolTunnelConcurrentConnections(t *testing.T) {
	const conns = 4
	s := NewPoolServer(conns, fastVPNOpts(3))
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
			for round := 0; round < 25; round++ {
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
	s := NewPoolServer(2, fastVPNOpts(2))
	s.Arm(porting.Observers{EPCBytes: 256 * epc.PageSize})
	s.Start()
	defer s.Stop()

	const forwards = 32
	for conn := 0; conn < 2; conn++ {
		c := s.Conn(conn)
		for i := 0; i < forwards; i++ {
			if _, err := c.Forward(testPayload(IperfPayload, conn*100+i)); err != nil {
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

// TestPoolTunnelFlightBytes checks that zero-copy calls report their
// payload volume per callsite — the per-byte signal the what-if router's
// cost model consumes.
func TestPoolTunnelFlightBytes(t *testing.T) {
	s := NewPoolServer(1, fastVPNOpts(2))
	rec := flight.New(flight.Options{SampleEvery: 1})
	s.Arm(porting.Observers{Registry: telemetry.New(), Flight: rec})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	const forwards = 8
	payload := testPayload(1024, 3)
	for i := 0; i < forwards; i++ {
		if _, err := c.Forward(payload); err != nil {
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
	found := map[string]bool{}
	for _, cs := range rec.Stats() {
		switch cs.Name {
		case "vpn.forward":
			found[cs.Name] = true
			if cs.Bytes != forwards*frameBytes {
				t.Errorf("vpn.forward bytes = %d, want %d", cs.Bytes, forwards*frameBytes)
			}
		case "vpn.stream":
			found[cs.Name] = true
			if cs.Bytes != vpnWindow*frameBytes {
				t.Errorf("vpn.stream bytes = %d, want %d", cs.Bytes, vpnWindow*frameBytes)
			}
		}
	}
	for _, name := range []string{"vpn.forward", "vpn.stream"} {
		if !found[name] {
			t.Errorf("callsite %q missing from stats table", name)
		}
	}

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("flight_callsite_bytes_total")) {
		t.Error("flight_callsite_bytes_total missing from exposition")
	}
}
