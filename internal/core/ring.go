package core

// This file is the fabric's zero-copy bulk-transfer layer: pre-registered
// payload rings, scatter-gather descriptors, and vectored submit.
//
// The base fabric (pool.go) moves one typed uint64 per call; anything
// larger pays the SDK's per-byte staging copies (internal/sdk/staging.go),
// which is exactly the overhead the paper's Figure 6 charges growing
// buffers with.  The zero-copy path removes the copies instead of
// accelerating them:
//
//   - PayloadRing: a per-requester pool of fixed-size slabs carved from
//     one untrusted shared allocation at pool construction.  The
//     requester writes payload bytes into a slab it owns and posts a
//     {slab, offset, length} descriptor; the responder reads and writes
//     the bytes in place.  Slab ownership follows the slot protocol the
//     fabric already has — the requester's slotPosted release store
//     publishes the payload bytes along with the descriptors, and the
//     responder's slotDone store publishes any in-place results — so the
//     bytes need no synchronization of their own.
//
//   - Segment: one {slab, offset, length} descriptor.  A call carries up
//     to MaxSegs of them (scatter-gather), so a protocol header and a
//     payload body travel as two references instead of one coalescing
//     copy.
//
//   - SubmitV (pool.go): vectored submit.  A window of calls is posted
//     with one slot release-store each, and the claiming side — a
//     responder (scale.go), or WaitAll itself when the responders are
//     parked — takes the whole posted run with one tail CAS, amortizing
//     the claim path the way the paper amortizes EENTER across batched
//     calls.
//
// The free-slab list is owned by the requester goroutine alone (plain
// fields, no atomics), mirroring the shard head cursor: the requester
// Acquires a slab before it posts and Releases it after it has reaped
// every call that references it.

import "errors"

// ErrTooManySegments rejects a scatter-gather list longer than MaxSegs.
var ErrTooManySegments = errors.New("core: more segments than a call slot holds")

// MaxSegs is the scatter-gather limit per call: enough for a
// header+body+trailer split while keeping the descriptor block on one
// requester-written cache line of the slot.
const MaxSegs = 4

// Segment is one zero-copy payload reference: Len bytes starting Off
// into the requester's slab Slab.
type Segment struct {
	Slab uint32
	Off  uint32
	Len  uint32
}

// PoolVecFunc is a scatter-gather call-table entry.  segs is the
// claimant's validated copy of the call slot's descriptor block and is
// valid only until the handler returns; the referenced bytes live in the
// requester's PayloadRing (pool.Ring(requester)) and may be read and
// written in place.
type PoolVecFunc func(requester int, data uint64, segs []Segment) uint64

// PayloadRing is one requester's slab pool.  All methods except the
// responder-side addressing helpers (Slab, Bytes) must be called from
// the owning requester goroutine only; the free list is deliberately
// unsynchronized, like the shard's head cursor.
type PayloadRing struct {
	mem       []byte   // one contiguous carve, sliced into slabs
	slabs     [][]byte // slab i is mem[i*slabBytes : (i+1)*slabBytes]
	free      []uint32 // LIFO free list; requester-owned
	slabBytes int

	// touch, when set, attributes byte accesses to an owner — the hook
	// the EPC observatory uses to tag slab pages (see SetTouch).
	touch func(slab uint32, off, n int)
}

func newPayloadRing(nslabs, slabBytes int) *PayloadRing {
	pr := &PayloadRing{
		mem:       make([]byte, nslabs*slabBytes),
		slabs:     make([][]byte, nslabs),
		free:      make([]uint32, 0, nslabs),
		slabBytes: slabBytes,
	}
	for i := 0; i < nslabs; i++ {
		pr.slabs[i] = pr.mem[i*slabBytes : (i+1)*slabBytes : (i+1)*slabBytes]
		// Push in reverse so Acquire hands out slab 0 first.
		pr.free = append(pr.free, uint32(nslabs-1-i))
	}
	return pr
}

// SlabBytes returns the fixed slab size.
func (pr *PayloadRing) SlabBytes() int { return pr.slabBytes }

// Slabs returns the slab count.
func (pr *PayloadRing) Slabs() int { return len(pr.slabs) }

// FreeSlabs returns how many slabs are currently unclaimed.
func (pr *PayloadRing) FreeSlabs() int { return len(pr.free) }

// Acquire pops a free slab, returning its index and byte window.  ok is
// false when every slab is attached to an in-flight call — the caller's
// window is full and it must reap completions first (the same
// backpressure story as a full slot ring).
func (pr *PayloadRing) Acquire() (slab uint32, buf []byte, ok bool) {
	n := len(pr.free)
	if n == 0 {
		return 0, nil, false
	}
	slab = pr.free[n-1]
	pr.free = pr.free[:n-1]
	return slab, pr.slabs[slab], true
}

// Release returns a slab to the free list.  Must only be called by the
// owning requester, and only after every call referencing the slab has
// been reaped.
func (pr *PayloadRing) Release(slab uint32) {
	pr.free = append(pr.free, slab)
}

// Slab addresses one slab's full byte window.  Safe from the responder:
// the slot handoff protocol orders all accesses.
func (pr *PayloadRing) Slab(slab uint32) []byte { return pr.slabs[slab] }

// Bytes addresses the window a segment describes.
func (pr *PayloadRing) Bytes(seg Segment) []byte {
	return pr.slabs[seg.Slab][seg.Off : uint64(seg.Off)+uint64(seg.Len)]
}

// holds reports whether every descriptor addresses a window inside one
// slab of the ring; a nil ring (a pool built without rings) holds none.
// The responder asks before it dispatches: the descriptor block is shared
// untrusted memory like call_ID, and Bytes on a forged one would panic on
// the responder's goroutine.
func (pr *PayloadRing) holds(segs []Segment) bool {
	if pr == nil {
		return false
	}
	for _, sg := range segs {
		if int(sg.Slab) >= len(pr.slabs) || uint64(sg.Off)+uint64(sg.Len) > uint64(pr.slabBytes) {
			return false
		}
	}
	return true
}

// SetTouch installs the byte-access attribution hook.  The EPC pressure
// observatory's owner tagging rides through here: the openvpn port, for
// example, installs a closure that maps a touched slab window to its
// simulated EPC pages and charges them to the connection's owner ID.
func (pr *PayloadRing) SetTouch(fn func(slab uint32, off, n int)) { pr.touch = fn }

// Touch attributes one segment's byte window through the installed hook
// (no-op when detached).
func (pr *PayloadRing) Touch(seg Segment) {
	if pr.touch != nil {
		pr.touch(seg.Slab, int(seg.Off), int(seg.Len))
	}
}

// Ring returns the payload ring bound to a requester shard (nil when the
// pool was built without rings).  Handlers use this to address the
// segments they receive.
func (p *CallPool) Ring(requester int) *PayloadRing {
	if p.rings == nil {
		return nil
	}
	return p.rings[requester]
}

// Ring returns this requester's payload ring (nil when the pool was
// built without rings; see PoolOptions.RingSlabs).
func (r *Requester) Ring() *PayloadRing { return r.pool.Ring(r.idx) }

// segTotal sums a descriptor list's byte length.
func segTotal(segs []Segment) (n uint64) {
	for i := range segs {
		n += uint64(segs[i].Len)
	}
	return n
}
