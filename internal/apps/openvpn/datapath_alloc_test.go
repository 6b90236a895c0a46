//go:build !race

package openvpn

import (
	"testing"

	"hotcalls/internal/core"
)

// TestDataPathAllocCeilings pins the per-frame allocation budget: the
// two objects inside each cipher.NewCTR (the stdlib offers no re-IV)
// and nothing else — no HMAC context, no coalescing copy, no plaintext
// buffer.  Not built under -race, where sync.Pool drops a share of Puts
// on purpose and the MAC contexts are rebuilt.
func TestDataPathAllocCeilings(t *testing.T) {
	const runs = 100
	payload := testPayload(IperfPayload, 3)
	tx, rx := SessionCipher(), SessionCipher()
	// One frame per call (AllocsPerRun adds a warm-up call), so Open
	// sees fresh packet IDs.
	var frames [runs + 1][FrameOverhead + IperfPayload]byte
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		tx.Seal(frames[next][:], payload)
		next++
	}); n > 2 {
		t.Errorf("Seal allocates %.0f per frame, want <= 2", n)
	}
	out := make([]byte, len(payload))
	next = 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := rx.Open(out, frames[next][:]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n > 2 {
		t.Errorf("Open allocates %.0f per frame, want <= 2", n)
	}

	// The handler alone, on frames sealed ahead of the measurement.
	opts := testVPNOpts(2)
	opts.RingSlabs = runs + 1
	s := NewPoolServer(1, opts)
	c := s.Conn(0)
	var staged [runs + 1][2]core.Segment
	for i := range staged {
		var err error
		if _, staged[i], err = c.sealInto(payload); err != nil {
			t.Fatal(err)
		}
	}
	next = 0
	if n := testing.AllocsPerRun(runs, func() {
		segs := staged[next][:]
		next++
		if ret := s.tunnel(0, 0, segs); ret == ^uint64(0) {
			t.Fatal("handler dropped a genuine frame")
		}
	}); n > 4 {
		t.Errorf("tunnel handler allocates %.0f per frame, want <= 4", n)
	}

	s = NewPoolServer(1, testVPNOpts(2))
	s.Start()
	defer s.Stop()
	c = s.Conn(0)
	window := make([][]byte, vpnWindow)
	for i := range window {
		window[i] = payload
	}
	if n := testing.AllocsPerRun(runs, func() {
		if n, err := c.Stream(window); n != vpnWindow || err != nil {
			t.Fatalf("Stream = (%d, %v)", n, err)
		}
	}); n > 8*vpnWindow {
		t.Errorf("Stream window allocates %.0f, want <= %d", n, 8*vpnWindow)
	}
}
