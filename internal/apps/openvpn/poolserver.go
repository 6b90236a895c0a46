package openvpn

// PoolServer routes the openVPN data path through the HotCalls fabric's
// zero-copy rings (core.PayloadRing) — the real-concurrency counterpart
// of the simulated Server above, and the fabric's first bulk-payload
// port.  Each client connection owns one fabric shard plus a slab ring;
// the tunnel pipeline is recvfrom→open→seal→sendto with no intermediate
// copies: the sealed frame lands in a slab (the "NIC DMA"), the call
// carries {slab, offset, length} descriptors — the 20-byte tunnel header
// and the ciphertext body travel as two scatter-gather segments — and
// the enclave-side handler authenticates, decrypts, and re-seals the
// bytes in place.  The streaming path posts whole windows with SubmitV,
// so a burst of datagrams is claimed with one tail CAS.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// opTunnel is the single vec-table entry: relay one tunnel datagram
// (authenticate + decrypt + re-seal, all in place in the slab).
const opTunnel core.CallID = 0

// slabFrameCap is the default slab size: one MTU frame plus tunnel
// overhead, rounded to a power of two.
const slabFrameCap = 2048

// ErrFrameTooLarge reports a payload that does not fit one slab with its
// tunnel header; nothing was sealed or posted.
var ErrFrameTooLarge = errors.New("openvpn: payload larger than a ring slab")

// tunnelState is one connection's crypto context: both direction keys,
// the receive one with its replay window, behind the per-connection lock
// the responders serialize on (openVPN's per-client context lock).
type tunnelState struct {
	mu sync.Mutex
	rx *Cipher // client -> server
	tx *Cipher // server -> client
	_  [tunnelPad]byte
}

// tunnelPad keeps adjacent connections' locks off one coherence line.
const tunnelPad = 64

// connCiphers derives connection i's deterministic direction keys (a
// deployment would run the TLS control channel instead).
func connCiphers(i int) (rx, tx *Cipher) {
	ck, mk := sessionKeys()
	ck[15] = byte(i)
	mk[31] = byte(i)
	rx = NewCipher(ck, mk)
	ck[14] ^= 0xa5 // distinct key per direction
	tx = NewCipher(ck, mk)
	return rx, tx
}

// PoolServer is the openVPN relay over the fabric: a CallPool whose one
// vec-table entry relays tunnel datagrams in place in the payload rings.
// The pool and its lifecycle are the embedded kit's (Pool, Start, Stop).
type PoolServer struct {
	porting.Fabric
	conns   []*PoolConn
	tunnels []*tunnelState
}

// NewPoolServer builds a fabric-routed tunnel relay for up to conns
// client connections.  opts tunes the underlying CallPool; Shards and
// SlotsPerShard are overridden (one shard of porting.Window slots per
// connection: a Stream window fills the ring), and the zero-copy rings
// default to 2x the window of MTU-sized slabs per connection.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{}
	if opts.RingSlabs == 0 {
		opts.RingSlabs = 2 * porting.Window
	}
	if opts.RingSlabBytes == 0 {
		opts.RingSlabBytes = slabFrameCap
	}
	s.Fabric = porting.NewFabric(conns, []core.PoolFunc{
		// The tunnel has no scalar-only path; a descriptor-less call is
		// malformed by construction.
		func(int, uint64) uint64 { return ^uint64(0) },
	}, opts)
	s.Pool().SetVecTable([]core.PoolVecFunc{s.tunnel})
	s.conns = make([]*PoolConn, conns)
	s.tunnels = make([]*tunnelState, conns)
	for i := range s.conns {
		rx, tx := connCiphers(i)
		s.tunnels[i] = &tunnelState{rx: rx, tx: tx}
		// The remote peer's view of the same keys: it seals with the
		// rx direction and verifies the relay's output with tx.
		peerSeal, _ := connCiphers(i)
		_, peerVerify := connCiphers(i)
		c := &PoolConn{s: s, req: s.Pool().Requester(),
			peerSeal: peerSeal, peerVerify: peerVerify}
		c.ring = c.req.Ring()
		c.scratch = make([]byte, c.ring.SlabBytes())
		s.conns[i] = c
	}
	return s
}

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// tunnel is the enclave-side vec handler: authenticate, replay-check,
// and decrypt the inbound frame in place, then re-seal it for the
// outbound direction — all in the two slab windows the descriptors
// reference, with zero copies.  Returns the outbound frame length, or
// the ^0 sentinel on a malformed or unauthentic datagram.
func (s *PoolServer) tunnel(requester int, data uint64, segs []core.Segment) uint64 {
	if len(segs) != 2 || segs[0].Len != FrameOverhead {
		return ^uint64(0)
	}
	ring := s.Pool().Ring(requester)
	hdr := ring.Bytes(segs[0])
	body := ring.Bytes(segs[1])

	t := s.tunnels[requester]
	t.mu.Lock()
	defer t.mu.Unlock()
	// Open in place — the ciphertext window becomes the plaintext window
	// — then re-seal for the outbound direction into the same windows.
	if t.rx.open(hdr, body, body) != nil {
		return ^uint64(0)
	}
	t.tx.seal(hdr, body, body)
	return uint64(FrameOverhead) + uint64(len(body))
}

// PoolConn is one client connection: a fabric requester, its payload
// ring, and the remote peer's crypto contexts (the test traffic
// generator seals inbound frames and verifies relayed output).
type PoolConn struct {
	s    *PoolServer
	req  *core.Requester
	ring *core.PayloadRing

	peerSeal   *Cipher // peer's sealer: client -> server direction
	peerVerify *Cipher // peer's receive keys: server -> client direction
	scratch    []byte  // verifyOut's plaintext buffer, one slab long

	calls [porting.Window]core.VecCall
	segs  [porting.Window][2]core.Segment
	slabs [porting.Window]uint32
}

// sealInto plays the NIC: the peer's sealed frame lands directly in a
// ring slab, split into header and body descriptors.
func (c *PoolConn) sealInto(payload []byte) (slab uint32, segs [2]core.Segment, err error) {
	if len(payload) > c.ring.SlabBytes()-FrameOverhead {
		return 0, segs, ErrFrameTooLarge
	}
	s, buf, ok := c.ring.Acquire()
	if !ok {
		return 0, segs, core.ErrWindowFull
	}
	frameLen := c.peerSeal.Seal(buf, payload)
	segs[0] = core.Segment{Slab: s, Off: 0, Len: FrameOverhead}
	segs[1] = core.Segment{Slab: s, Off: FrameOverhead, Len: uint32(frameLen - FrameOverhead)}
	return s, segs, nil
}

// stage seals payload into a slab as call i of the window being built.
func (c *PoolConn) stage(i int, payload []byte) error {
	slab, segs, err := c.sealInto(payload)
	if err != nil {
		return err
	}
	c.slabs[i] = slab
	c.segs[i] = segs
	c.calls[i] = core.VecCall{ID: opTunnel, Segs: c.segs[i][:]}
	return nil
}

// verifyOut opens one relayed output frame with the peer's receive
// context — the tunnel's one open, so the same replay window: concurrent
// responders may commit a window slightly out of order — and checks the
// payload round-tripped.
func (c *PoolConn) verifyOut(frame, payload []byte) error {
	if len(frame) != FrameOverhead+len(payload) {
		return ErrShortPkt
	}
	out := c.scratch[:len(payload)]
	if err := c.peerVerify.open(frame[:FrameOverhead], out, frame[FrameOverhead:]); err != nil {
		return err
	}
	if !bytes.Equal(out, payload) {
		for i := range out {
			if out[i] != payload[i] {
				return fmt.Errorf("openvpn: payload corrupted at byte %d", i)
			}
		}
	}
	return nil
}

// Stream relays a window of datagrams with one vectored submit (batched
// tail claim), verifying every relayed frame.
// Returns how many datagrams were relayed.  A payload that cannot be
// sealed (no free slab, or ErrFrameTooLarge) ends the window before it;
// it is the returned error only when it is the window's first.
func (c *PoolConn) Stream(payloads [][]byte) (int, error) {
	if len(payloads) > porting.Window {
		payloads = payloads[:porting.Window]
	}
	n := 0
	var serr error
	for ; n < len(payloads); n++ {
		if serr = c.stage(n, payloads[n]); serr != nil {
			break
		}
	}
	if n == 0 {
		return 0, serr
	}
	release := func(from int) {
		for i := from; i < n; i++ {
			c.ring.Release(c.slabs[i])
		}
	}
	b, err := c.req.SubmitV(c.calls[:n])
	if b == nil {
		release(0)
		return 0, err
	}
	var rets [porting.Window]uint64
	werr := b.WaitAll(rets[:])
	done := b.Len()
	for i := 0; i < done; i++ {
		if werr == nil && rets[i] != ^uint64(0) {
			if verr := c.verifyOut(c.ring.Slab(c.slabs[i])[:rets[i]], payloads[i]); verr != nil && werr == nil {
				werr = verr
			}
		} else if werr == nil {
			werr = ErrBadMAC
		}
	}
	release(0)
	if werr != nil {
		return done, werr
	}
	if err != nil {
		return done, err
	}
	return done, nil
}
