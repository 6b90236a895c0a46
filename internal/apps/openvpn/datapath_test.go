package openvpn

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// refMac is the reference the pooled routine must agree with: a fresh
// HMAC-SHA256 keyed per call over the contiguous hdr‖body.
func refMac(key [32]byte, hdr, body []byte) (out [macSize]byte) {
	h := hmac.New(sha256.New, key[:])
	h.Write(append(append([]byte(nil), hdr...), body...))
	copy(out[:], h.Sum(nil))
	return out
}

func TestMacMatchesFreshHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		var ck [16]byte
		var mk [32]byte
		rng.Read(ck[:])
		rng.Read(mk[:])
		c := NewCipher(ck, mk)
		msg := make([]byte, rng.Intn(2*mtu))
		rng.Read(msg)
		// Reuse the context across several splits of the same and of
		// different messages: a stale inner state would show here.
		for _, split := range []int{0, len(msg), rng.Intn(len(msg) + 1), min(packetIDSize, len(msg))} {
			hdr, body := msg[:split], msg[split:]
			if got, want := c.mac(hdr, body), refMac(mk, hdr, body); got != want {
				t.Fatalf("trial %d split %d/%d: mac = %x, want %x", trial, split, len(msg), got, want)
			}
		}
	}
}

// Frames produced by the code before the keyed-once contexts, for
// the session keys (goldenSeal: packet ID 1) and connection 0's relay keys.
const (
	goldenSeal     = "000000017da30c090eeb128c4604e415521c2e39f8ed60b0d2448a1a3553f170c2e41455170c6d39f1e44a05760e61713dee2ea00ac7812a0d3efe153011c32ddca0ae80"
	goldenRelayIn  = "00000001c2924fdbb96d7bf178a930e31571c0f023fafefbf9ea629f0b2c39c1d328f84dfebb8ad1f39154ffebcae0955a5d137e43af25c1e6ec81f2e7bee05ce498c026"
	goldenRelayOut = "0000000153b653f49abbc734230bf7fcbeaf28637e9e4207b9f317e3d711ce70c50c1bf7924bd9ae2448d30afbb21c932996c7a5f86505df43597c66f88b6503c9e0e40f"
)

func TestGoldenFrameWireCompat(t *testing.T) {
	payload := testPayload(48, 7)
	want, _ := hex.DecodeString(goldenSeal)
	out := make([]byte, mtu)
	n, err := SessionCipher().Open(out, want)
	if err != nil || !bytes.Equal(out[:n], payload) {
		t.Fatalf("golden frame opened to (%x, %v)", out[:n], err)
	}
	frame := make([]byte, len(want))
	if SessionCipher().Seal(frame, payload); !bytes.Equal(frame, want) {
		t.Fatalf("re-sealed frame = %x, want %x", frame, want)
	}

	// The relay handler, driven directly: same inbound bytes from the
	// peer's sealer, same outbound bytes after open + re-seal in place.
	s := NewPoolServer(1, testVPNOpts(1))
	c := s.Conn(0)
	slab, segs, err := c.sealInto(payload)
	if err != nil {
		t.Fatal(err)
	}
	wantIn, _ := hex.DecodeString(goldenRelayIn)
	wantOut, _ := hex.DecodeString(goldenRelayOut)
	if got := c.ring.Slab(slab)[:len(wantIn)]; !bytes.Equal(got, wantIn) {
		t.Fatalf("inbound frame = %x, want %x", got, wantIn)
	}
	ret := s.tunnel(0, 0, segs[:])
	if got := c.ring.Slab(slab)[:ret]; !bytes.Equal(got, wantOut) {
		t.Fatalf("relayed frame = %x, want %x", got, wantOut)
	}
	if err := c.verifyOut(c.ring.Slab(slab)[:ret], payload); err != nil {
		t.Fatal(err)
	}
}

// TestMACCheckedBeforeReplayAndDecrypt asserts the order the data path
// promises: a frame that fails authentication leaves the replay state
// and the slab bytes exactly as they were, so its packet ID is still
// good for the genuine frame.
func TestMACCheckedBeforeReplayAndDecrypt(t *testing.T) {
	tx, rx := SessionCipher(), SessionCipher()
	frame := make([]byte, FrameOverhead+100)
	tx.nextID = 9
	n := tx.Seal(frame, make([]byte, 100))
	frame[n-1] ^= 1
	if _, err := rx.Open(make([]byte, mtu), frame[:n]); !errors.Is(err, ErrBadMAC) || rx.win != (replayWindow{}) {
		t.Fatalf("forged frame: err = %v, replay window %+v", err, rx.win)
	}
	frame[n-1] ^= 1
	if _, err := rx.Open(make([]byte, mtu), frame[:n]); err != nil {
		t.Fatalf("genuine frame after forgery: %v", err)
	}

	s := NewPoolServer(1, testVPNOpts(1))
	c := s.Conn(0)
	slab, segs, err := c.sealInto(testPayload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	body := c.ring.Bytes(segs[1])
	body[10] ^= 1
	before := append([]byte(nil), c.ring.Slab(slab)[:FrameOverhead+256]...)
	if ret := s.tunnel(0, 0, segs[:]); ret != ^uint64(0) {
		t.Fatalf("forged datagram relayed: ret = %d", ret)
	}
	if st := s.tunnels[0]; st.rx.win != (replayWindow{}) || st.tx.nextID != 1 {
		t.Fatalf("forged datagram moved state: window %+v, next tx ID %d", st.rx.win, st.tx.nextID)
	}
	if !bytes.Equal(c.ring.Slab(slab)[:len(before)], before) {
		t.Fatal("forged datagram was decrypted before its MAC was checked")
	}
	body[10] ^= 1
	if ret := s.tunnel(0, 0, segs[:]); ret != FrameOverhead+256 {
		t.Fatalf("genuine datagram after forgery: ret = %#x", ret)
	}
	if ret := s.tunnel(0, 0, segs[:]); ret != ^uint64(0) {
		t.Fatal("relay accepted its own output as inbound")
	}
}

// TestMacConcurrentUnderOneCipher has eight goroutines MAC distinct
// frames under one Cipher; a context shared between two of them would
// mix their writes and miss the reference (and trip -race).
func TestMacConcurrentUnderOneCipher(t *testing.T) {
	const workers, frames = 8, 10000
	_, mk := sessionKeys()
	c := SessionCipher()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frame := testPayload(packetIDSize+64+32*w, w)
			for i := 0; i < frames; i++ {
				frame[0], frame[packetIDSize] = byte(i), byte(i>>8)
				hdr, body := frame[:packetIDSize], frame[packetIDSize:]
				if got, want := c.mac(hdr, body), refMac(mk, hdr, body); got != want {
					t.Errorf("worker %d frame %d: mac = %x, want %x", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPoolTunnelFrameTooLarge(t *testing.T) {
	s := NewPoolServer(1, testVPNOpts(2))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	fits := testPayload(c.ring.SlabBytes()-FrameOverhead, 1)
	big := testPayload(len(fits)+1, 2)

	if n, err := c.Stream([][]byte{fits}); n != 1 || err != nil {
		t.Fatalf("slab-filling payload: Stream = (%d, %v)", n, err)
	}
	if n, err := c.Stream([][]byte{big}); n != 0 || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Stream = (%d, %v), want (0, ErrFrameTooLarge)", n, err)
	}
	if n, err := c.Stream([][]byte{big, fits}); n != 0 || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Stream = (%d, %v), want (0, ErrFrameTooLarge)", n, err)
	}
	// Mid-window the frames ahead of the oversized one are relayed and
	// the count tells the caller where the window stopped.
	if n, err := c.Stream([][]byte{fits, fits, big, fits}); n != 2 || err != nil {
		t.Fatalf("Stream = (%d, %v), want (2, nil)", n, err)
	}
	if free := c.ring.FreeSlabs(); free != c.ring.Slabs() {
		t.Fatalf("slabs leaked: %d free of %d", free, c.ring.Slabs())
	}
}

// BenchmarkStreamWindow relays verified windows of 16 x 1400 B the way
// the repo benchmark's vpn_stream workload does: default pool options,
// one connection.
func BenchmarkStreamWindow(b *testing.B) {
	s := NewPoolServer(1, core.PoolOptions{})
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	payloads := make([][]byte, porting.Window)
	for i := range payloads {
		payloads[i] = testPayload(IperfPayload, i)
	}
	b.ReportAllocs()
	b.SetBytes(porting.Window * IperfPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.Stream(payloads); n != porting.Window || err != nil {
			b.Fatalf("Stream = (%d, %v)", n, err)
		}
	}
}
