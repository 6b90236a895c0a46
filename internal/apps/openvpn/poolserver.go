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
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
)

// opTunnel is the single vec-table entry: relay one tunnel datagram
// (authenticate + decrypt + re-seal, all in place in the slab).
const opTunnel core.CallID = 0

// vpnWindow is the per-connection streaming window: the SubmitV batch
// size and the number of slabs a connection keeps in flight.
const vpnWindow = 16

// slabFrameCap is the default slab size: one MTU frame plus tunnel
// overhead, rounded to a power of two.
const slabFrameCap = 2048

// ErrWindowFull reports a submit with every slab attached to an
// in-flight call; reap completions first.
var ErrWindowFull = errors.New("openvpn: connection window full (no free slab)")

// ErrFrameTooLarge reports a payload that does not fit one slab with its
// tunnel header; nothing was sealed or posted.
var ErrFrameTooLarge = errors.New("openvpn: payload larger than a ring slab")

// replayWindow is a reorder-tolerant packet-ID filter (openVPN's UDP
// sliding window): IDs up to 63 behind the highest seen are accepted
// once each.  The fabric needs the tolerance because concurrent
// responders may execute a window's calls slightly out of order.
type replayWindow struct {
	highest uint32
	mask    uint64 // bit i set = (highest - i) already seen
}

func (w *replayWindow) accept(id uint32) bool {
	if id == 0 {
		return false
	}
	if id > w.highest {
		shift := id - w.highest
		if shift >= 64 {
			w.mask = 0
		} else {
			w.mask <<= shift
		}
		w.mask |= 1
		w.highest = id
		return true
	}
	diff := w.highest - id
	if diff >= 64 || w.mask&(1<<diff) != 0 {
		return false
	}
	w.mask |= 1 << diff
	return true
}

// tunnelState is one connection's crypto context: both direction keys
// and the receive replay window, behind the per-connection lock the
// responders serialize on (openVPN's per-client context lock).
type tunnelState struct {
	mu    sync.Mutex
	rx    *Cipher // client -> server
	tx    *Cipher // server -> client
	rxWin replayWindow
	_     [tunnelPad]byte
}

// tunnelPad keeps adjacent connections' locks off one coherence line.
const tunnelPad = 64

// connCiphers derives connection i's deterministic direction keys (a
// deployment would run the TLS control channel instead).
func connCiphers(i int) (rx, tx *Cipher) {
	var ck [16]byte
	var mk [32]byte
	copy(ck[:], "tunnel-cipher-k!")
	copy(mk[:], "tunnel-hmac-key-tunnel-hmac-key-")
	ck[15] = byte(i)
	mk[31] = byte(i)
	rx = NewCipher(ck, mk)
	ck[14] ^= 0xa5 // distinct key per direction
	tx = NewCipher(ck, mk)
	return rx, tx
}

// The port's flight callsites: the synchronous forward path and the
// vectored streaming path show as separate rows in /debug/flight, and
// each sampled record carries its call's payload bytes.
// The constants index fabricSpec.Callsites.
const (
	csForward = iota
	csStream
)

var fabricSpec = porting.FabricSpec{
	Callsites: []string{"vpn.forward", "vpn.stream"},
	SealKey:   "vpn-epc-zc-rings",
}

// PoolServer is the openVPN relay over the fabric: a CallPool whose one
// vec-table entry relays tunnel datagrams in place in the payload rings.
// The pool's lifecycle and everything that observes it are the embedded
// kit's (Arm, DebugMux, Pool, Start, Stop).
type PoolServer struct {
	porting.Fabric
	conns   []*PoolConn
	tunnels []*tunnelState
}

// NewPoolServer builds a fabric-routed tunnel relay for up to conns
// client connections.  opts tunes the underlying CallPool; Shards is
// overridden to the connection count, and the zero-copy rings default to
// 2x the streaming window of MTU-sized slabs per connection.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{}
	if opts.RingSlabs == 0 {
		opts.RingSlabs = 2 * vpnWindow
	}
	if opts.RingSlabBytes == 0 {
		opts.RingSlabBytes = slabFrameCap
	}
	s.Fabric = porting.NewFabric(fabricSpec, conns, []core.PoolFunc{
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
		c := &PoolConn{s: s, idx: i, req: s.Pool().Requester(),
			peerSeal: peerSeal, peerVerify: peerVerify}
		c.ring = c.req.Ring()
		c.scratch = make([]byte, c.ring.SlabBytes())
		c.ring.SetTouch(s.ringTouch(i))
		s.conns[i] = c
	}
	return s
}

// ringTouch builds connection i's slab-page attribution hook
// (core.PayloadRing.SetTouch): the enclave pages backing a touched slab
// window — placed by connection, slab and offset — are charged to the
// connection, so the EPC observatory attributes ring-payload pressure
// per client.
func (s *PoolServer) ringTouch(conn int) func(slab uint32, off, n int) {
	return func(slab uint32, off, n int) {
		s.TouchEPC(conn, uint64(conn+1)*0x9e3779b97f4a7c15+uint64(slab)*8+uint64(off)/epc.PageSize,
			porting.PagesOf(n))
	}
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
	ring.Touch(segs[0])
	ring.Touch(segs[1])

	t := s.tunnels[requester]
	t.mu.Lock()
	defer t.mu.Unlock()

	id := binary.BigEndian.Uint32(hdr[:packetIDSize])
	want := t.rx.mac(hdr[:packetIDSize], body)
	if !hmac.Equal(want[:], hdr[packetIDSize:FrameOverhead]) {
		return ^uint64(0)
	}
	if !t.rxWin.accept(id) {
		return ^uint64(0)
	}
	// Decrypt in place: the ciphertext window becomes the plaintext
	// window (CTR XOR permits exact aliasing).
	t.rx.stream(id).XORKeyStream(body, body)

	// Re-seal for the outbound direction in place: fresh packet ID,
	// re-encrypt, recompute the MAC into the same header window.
	oid := t.tx.nextID
	t.tx.nextID++
	binary.BigEndian.PutUint32(hdr[:packetIDSize], oid)
	t.tx.stream(oid).XORKeyStream(body, body)
	mac := t.tx.mac(hdr[:packetIDSize], body)
	copy(hdr[packetIDSize:FrameOverhead], mac[:])
	return uint64(FrameOverhead) + uint64(len(body))
}

// PoolConn is one client connection: a fabric requester, its payload
// ring, and the remote peer's crypto contexts (the test traffic
// generator seals inbound frames and verifies relayed output).
type PoolConn struct {
	s    *PoolServer
	idx  int
	req  *core.Requester
	ring *core.PayloadRing

	peerSeal   *Cipher // peer's sealer: client -> server direction
	peerVerify *Cipher // peer's receive keys: server -> client direction
	peerWin    replayWindow
	scratch    []byte // verifyOut's plaintext buffer, one slab long

	calls [vpnWindow]core.VecCall
	segs  [vpnWindow][2]core.Segment
	slabs [vpnWindow]uint32
}

// sealInto plays the NIC: the peer's sealed frame lands directly in a
// ring slab, split into header and body descriptors.
func (c *PoolConn) sealInto(payload []byte) (slab uint32, segs [2]core.Segment, err error) {
	if len(payload) > c.ring.SlabBytes()-FrameOverhead {
		return 0, segs, ErrFrameTooLarge
	}
	s, buf, ok := c.ring.Acquire()
	if !ok {
		return 0, segs, ErrWindowFull
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

// verifyOut authenticates and decrypts one relayed output frame with
// the peer's receive context (reorder-tolerant: concurrent responders
// may commit a window slightly out of order) and checks the payload
// round-tripped.
func (c *PoolConn) verifyOut(frame, payload []byte) error {
	if len(frame) != FrameOverhead+len(payload) {
		return ErrShortPkt
	}
	id := binary.BigEndian.Uint32(frame[:packetIDSize])
	want := c.peerVerify.mac(frame[:packetIDSize], frame[FrameOverhead:])
	if !hmac.Equal(want[:], frame[packetIDSize:FrameOverhead]) {
		return ErrBadMAC
	}
	if !c.peerWin.accept(id) {
		return ErrReplay
	}
	out := c.scratch[:len(payload)]
	c.peerVerify.stream(id).XORKeyStream(out, frame[FrameOverhead:])
	if !bytes.Equal(out, payload) {
		for i := range out {
			if out[i] != payload[i] {
				return fmt.Errorf("openvpn: payload corrupted at byte %d", i)
			}
		}
	}
	return nil
}

// Forward relays one datagram synchronously: seal into a slab, one
// zero-copy scatter-gather call, verify the re-sealed output read
// straight from the slab, recycle.  Returns the outbound frame length.
func (c *PoolConn) Forward(payload []byte) (int, error) {
	slab, segs, err := c.sealInto(payload)
	if err != nil {
		return 0, err
	}
	ret, err := c.req.CallZCAt(c.s.Callsite(csForward), opTunnel, 0, segs[:])
	if err != nil {
		c.ring.Release(slab)
		return 0, err
	}
	if ret == ^uint64(0) {
		c.ring.Release(slab)
		return 0, ErrBadMAC
	}
	verr := c.verifyOut(c.ring.Slab(slab)[:ret], payload)
	c.ring.Release(slab)
	if verr != nil {
		return 0, verr
	}
	return int(ret), nil
}

// Stream relays a window of datagrams with one vectored submit (batched
// tail claim), verifying every relayed frame.
// Returns how many datagrams were relayed.  A payload that cannot be
// sealed (no free slab, or ErrFrameTooLarge) ends the window before it;
// it is the returned error only when it is the window's first.
func (c *PoolConn) Stream(payloads [][]byte) (int, error) {
	if len(payloads) > vpnWindow {
		payloads = payloads[:vpnWindow]
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
	b, err := c.req.SubmitVAt(c.s.Callsite(csStream), c.calls[:n])
	if b == nil {
		release(0)
		return 0, err
	}
	done := b.Len() // WaitAll recycles the handle; capture first
	var rets [vpnWindow]uint64
	werr := b.WaitAll(rets[:done])
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
