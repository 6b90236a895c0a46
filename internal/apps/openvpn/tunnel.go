// Package openvpn is the paper's second evaluation application
// (Section 6.3): an encrypted UDP tunnel in the style of openVPN 2.3.12
// with OpenSSL, ported wholesale into an enclave to protect the tunnel
// keys.  The data path is real: packets are encrypted with AES-128-CTR and
// authenticated with HMAC-SHA256, and a tampered or replayed datagram is
// rejected.
package openvpn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sync"
)

// Tunnel framing: 4-byte packet ID (replay protection) + 16-byte truncated
// HMAC + ciphertext.
const (
	packetIDSize  = 4
	macSize       = 16
	FrameOverhead = packetIDSize + macSize
)

// Errors from the tunnel data path.
var (
	ErrBadMAC   = errors.New("openvpn: packet failed authentication")
	ErrReplay   = errors.New("openvpn: replayed packet ID")
	ErrShortPkt = errors.New("openvpn: truncated packet")
)

// Cipher is one direction of the tunnel: an AES-CTR key, an HMAC key, and
// the replay window.  It mirrors an OpenSSL EVP cipher context; openVPN
// consults the PRNG (and thus calls getpid via OpenSSL) around context
// operations, which is why getpid appears in Table 2.
type Cipher struct {
	block  cipher.Block
	macKey [32]byte
	macs   sync.Pool    // *macCtx keyed with macKey; see mac
	nextID uint32       // sender: next packet ID
	win    replayWindow // receiver: the packet IDs already accepted
}

// replayWindow is openVPN's reorder-tolerant packet-ID filter for UDP:
// IDs up to 63 behind the highest seen are accepted once each.  Both
// clocks need the tolerance — a datagram network reorders, and the
// fabric's concurrent responders may execute a window's calls slightly
// out of order.
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

// macCtx is one keyed HMAC-SHA256 context plus the buffer it sums into.
// It holds nothing but state derived from its Cipher's macKey and is
// reachable only through that Cipher's pool, so it lives and dies with
// the key.
type macCtx struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewCipher builds one direction from 16-byte cipher and 32-byte MAC keys.
func NewCipher(key [16]byte, macKey [32]byte) *Cipher {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // fixed-size key cannot fail
	}
	c := &Cipher{block: block, macKey: macKey, nextID: 1}
	c.macs.New = func() any { return &macCtx{h: hmac.New(sha256.New, c.macKey[:])} }
	return c
}

func (c *Cipher) stream(id uint32) cipher.Stream {
	var iv [16]byte
	binary.BigEndian.PutUint32(iv[:], id)
	return cipher.NewCTR(c.block, iv[:])
}

// mac is the tunnel's one MAC routine: the truncated HMAC-SHA256 over
// hdr‖body, the packet-ID header and the ciphertext as two writes, so a
// scatter-gather frame needs no coalescing copy.  The key is hashed once
// per context, not once per frame: after its first Reset the stdlib
// restores the saved ipad/opad compression states instead of
// re-deriving them.  A context is taken for one MAC and put back, never
// shared, so goroutines may MAC under one Cipher at the same time.
func (c *Cipher) mac(hdr, body []byte) (out [macSize]byte) {
	m := c.macs.Get().(*macCtx)
	m.h.Reset()
	m.h.Write(hdr)
	m.h.Write(body)
	copy(out[:], m.h.Sum(m.sum[:0]))
	c.macs.Put(m)
	return out
}

// seal is the tunnel's one sealing routine: it encrypts src into dst
// under the next packet ID and writes the ID and the MAC over both into
// hdr, the frame's FrameOverhead-byte header.  dst and src may be the
// same bytes (CTR XOR permits exact aliasing), so a frame seals in place.
func (c *Cipher) seal(hdr, dst, src []byte) {
	id := c.nextID
	c.nextID++
	binary.BigEndian.PutUint32(hdr[:packetIDSize], id)
	c.stream(id).XORKeyStream(dst, src)
	mac := c.mac(hdr[:packetIDSize], dst)
	copy(hdr[packetIDSize:FrameOverhead], mac[:])
}

// open is seal's inverse and the tunnel's one receive rule, in this
// order: authenticate hdr‖src, admit the packet ID through the replay
// window, and only then decrypt src into dst (in place when they alias).
// A frame that fails either check leaves the window and dst untouched.
func (c *Cipher) open(hdr, dst, src []byte) error {
	id := binary.BigEndian.Uint32(hdr[:packetIDSize])
	want := c.mac(hdr[:packetIDSize], src)
	if !hmac.Equal(want[:], hdr[packetIDSize:FrameOverhead]) {
		return ErrBadMAC
	}
	if !c.win.accept(id) {
		return ErrReplay
	}
	c.stream(id).XORKeyStream(dst[:len(src)], src)
	return nil
}

// Seal encrypts and authenticates one plaintext packet into dst and
// returns the frame length.
func (c *Cipher) Seal(dst, plaintext []byte) int {
	n := FrameOverhead + len(plaintext)
	c.seal(dst[:FrameOverhead], dst[FrameOverhead:n], plaintext)
	return n
}

// Open authenticates and decrypts one frame into dst, enforcing the
// replay window.  It returns the plaintext length.
func (c *Cipher) Open(dst, frame []byte) (int, error) {
	if len(frame) < FrameOverhead {
		return 0, ErrShortPkt
	}
	if err := c.open(frame[:FrameOverhead], dst, frame[FrameOverhead:]); err != nil {
		return 0, err
	}
	return len(frame) - FrameOverhead, nil
}
