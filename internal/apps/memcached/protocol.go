// Package memcached is the paper's first evaluation application
// (Section 6.2): a key-value RAM cache, ported wholesale into an enclave.
// The implementation speaks the memcached binary protocol, stores real
// bytes, and charges its memory behaviour through the simulated hierarchy;
// the workload follows the paper's memtier setup (binary protocol, 1:1
// SET:GET, 2 KB values, 4x50 = 200 outstanding requests over loopback).
package memcached

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary protocol constants (the subset memtier exercises).
const (
	MagicRequest  = 0x80
	MagicResponse = 0x81
	OpGet         = 0x00
	OpSet         = 0x01
	OpDelete      = 0x04
	HeaderSize    = 24

	StatusOK       = 0x0000
	StatusNotFound = 0x0001
)

// Errors from protocol decoding.
var (
	ErrShortPacket = errors.New("memcached: packet shorter than its header claims")
	ErrBadMagic    = errors.New("memcached: bad magic byte")
	ErrBadOpcode   = errors.New("memcached: unsupported opcode")
)

// Request is a decoded binary-protocol request.
type Request struct {
	Op     byte
	Key    string
	Value  []byte // SET only
	Opaque uint32
}

// EncodeRequest serializes a request into buf and returns the byte count.
func EncodeRequest(buf []byte, r *Request) (int, error) {
	extras := 0
	if r.Op == OpSet {
		extras = 8 // flags + expiry
	}
	total := HeaderSize + extras + len(r.Key) + len(r.Value)
	if total > len(buf) {
		return 0, fmt.Errorf("memcached: request needs %d bytes, buffer has %d", total, len(buf))
	}
	clear(buf[:HeaderSize])
	buf[0] = MagicRequest
	buf[1] = r.Op
	binary.BigEndian.PutUint16(buf[2:], uint16(len(r.Key)))
	buf[4] = byte(extras)
	binary.BigEndian.PutUint32(buf[8:], uint32(extras+len(r.Key)+len(r.Value)))
	binary.BigEndian.PutUint32(buf[12:], r.Opaque)
	p := HeaderSize + extras
	clear(buf[HeaderSize:p])
	p += copy(buf[p:], r.Key)
	p += copy(buf[p:], r.Value)
	return p, nil
}

// requestView is a decoded request whose key and value alias the packet
// it was decoded from; the fabric handler works on it by value, so
// serving a request allocates nothing.
type requestView struct {
	op         byte
	key, value []byte // value on SET only
	opaque     uint32
}

// decodeRequest parses a binary-protocol request in place.
func decodeRequest(pkt []byte) (requestView, error) {
	if len(pkt) < HeaderSize {
		return requestView{}, ErrShortPacket
	}
	if pkt[0] != MagicRequest {
		return requestView{}, ErrBadMagic
	}
	op := pkt[1]
	if op != OpGet && op != OpSet && op != OpDelete {
		return requestView{}, ErrBadOpcode
	}
	keyLen := int(binary.BigEndian.Uint16(pkt[2:]))
	extras := int(pkt[4])
	body := int(binary.BigEndian.Uint32(pkt[8:]))
	if len(pkt) < HeaderSize+body || body < extras+keyLen {
		return requestView{}, ErrShortPacket
	}
	v := requestView{
		op:     op,
		key:    pkt[HeaderSize+extras : HeaderSize+extras+keyLen],
		opaque: binary.BigEndian.Uint32(pkt[12:]),
	}
	if op == OpSet {
		v.value = pkt[HeaderSize+extras+keyLen : HeaderSize+body]
	}
	return v, nil
}

// Response is a decoded binary-protocol response.
type Response struct {
	Op     byte
	Status uint16
	Value  []byte
	Opaque uint32
}

// EncodeResponse serializes a response into buf and returns the byte
// count.
func EncodeResponse(buf []byte, r *Response) (int, error) {
	total := HeaderSize + len(r.Value)
	if total > len(buf) {
		return 0, fmt.Errorf("memcached: response needs %d bytes, buffer has %d", total, len(buf))
	}
	clear(buf[:HeaderSize])
	buf[0] = MagicResponse
	buf[1] = r.Op
	binary.BigEndian.PutUint16(buf[6:], r.Status)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(r.Value)))
	binary.BigEndian.PutUint32(buf[12:], r.Opaque)
	copy(buf[HeaderSize:], r.Value)
	return total, nil
}

// DecodeResponse parses a binary-protocol response.
func DecodeResponse(pkt []byte) (*Response, error) {
	r := new(Response)
	if err := decodeResponse(r, pkt); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeResponse parses a response into r; r.Value aliases pkt.
func decodeResponse(r *Response, pkt []byte) error {
	if len(pkt) < HeaderSize {
		return ErrShortPacket
	}
	if pkt[0] != MagicResponse {
		return ErrBadMagic
	}
	body := int(binary.BigEndian.Uint32(pkt[8:]))
	if len(pkt) < HeaderSize+body {
		return ErrShortPacket
	}
	*r = Response{
		Op:     pkt[1],
		Status: binary.BigEndian.Uint16(pkt[6:]),
		Value:  pkt[HeaderSize : HeaderSize+body],
		Opaque: binary.BigEndian.Uint32(pkt[12:]),
	}
	return nil
}
