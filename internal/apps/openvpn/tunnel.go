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
	block   cipher.Block
	macKey  [32]byte
	macs    sync.Pool // *macCtx keyed with macKey; see mac
	nextID  uint32    // sender: next packet ID
	highest uint32    // receiver: highest ID seen (replay floor)
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

// Seal encrypts and authenticates one plaintext packet into dst and
// returns the frame length.
func (c *Cipher) Seal(dst, plaintext []byte) int {
	id := c.nextID
	c.nextID++
	binary.BigEndian.PutUint32(dst[:packetIDSize], id)
	ct := dst[FrameOverhead : FrameOverhead+len(plaintext)]
	c.stream(id).XORKeyStream(ct, plaintext)
	mac := c.mac(dst[:packetIDSize], ct)
	copy(dst[packetIDSize:FrameOverhead], mac[:])
	return FrameOverhead + len(plaintext)
}

// Open authenticates and decrypts one frame into dst, enforcing the
// replay window.  It returns the plaintext length.
func (c *Cipher) Open(dst, frame []byte) (int, error) {
	if len(frame) < FrameOverhead {
		return 0, ErrShortPkt
	}
	id := binary.BigEndian.Uint32(frame[:packetIDSize])
	ct := frame[FrameOverhead:]
	want := c.mac(frame[:packetIDSize], ct)
	if !hmac.Equal(want[:], frame[packetIDSize:FrameOverhead]) {
		return 0, ErrBadMAC
	}
	if id <= c.highest {
		return 0, ErrReplay
	}
	c.highest = id
	c.stream(id).XORKeyStream(dst[:len(ct)], ct)
	return len(ct), nil
}
