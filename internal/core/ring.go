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
//   - SubmitV: vectored submit.  A window of calls is posted with one
//     slot release-store each, and the claiming side — a responder
//     (scale.go), or WaitAll itself when the responders are parked —
//     takes the whole posted run with one tail CAS, amortizing the claim
//     path the way the paper amortizes EENTER across batched calls.
//
// The free-slab list is owned by the requester goroutine alone (plain
// fields, no atomics), mirroring the shard head cursor: the requester
// Acquires a slab before it posts and Releases it after it has reaped
// every call that references it.

import (
	"errors"

	"hotcalls/internal/flight"
)

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

// CallZC executes a scatter-gather call and waits for the result: the
// responder's vec-table handler reads and writes the referenced slab
// windows in place, with no per-byte copy on either side.  See CallZCAt
// for flight attribution.
func (r *Requester) CallZC(id CallID, data uint64, segs []Segment) (uint64, error) {
	return r.CallZCAt(flight.Callsite{}, id, data, segs)
}

// CallZCAt is CallZC stamped with a registered flight-recorder callsite.
func (r *Requester) CallZCAt(cs flight.Callsite, id CallID, data uint64, segs []Segment) (uint64, error) {
	s, fr, err := r.post(cs, id, data, segs)
	if err != nil {
		return 0, err
	}
	if err := r.await(s, fr); err != nil {
		return 0, err
	}
	return s.ret, nil
}

// VecCall is one entry of a vectored submit window.
type VecCall struct {
	ID   CallID
	Data uint64
	// Segs is the call's scatter-gather list (nil for a plain uint64
	// call riding the batch).
	Segs []Segment
}

// SubmitV posts a window of calls as one batch: every call is published
// with its own slot release store, and the posted run is claimed with a
// single tail CAS — by a responder (scale.go), or by WaitAll when the
// responders are parked.  See SubmitVAt.
func (r *Requester) SubmitV(calls []VecCall) (*PoolBatch, error) {
	return r.SubmitVAt(flight.Callsite{}, calls)
}

// SubmitVAt is SubmitV stamped with a registered flight-recorder
// callsite.  On ErrTimeout or ErrStopped mid-window the batch returned
// covers the calls already posted (nil only when nothing was posted);
// the caller must still WaitAll it.
func (r *Requester) SubmitVAt(cs flight.Callsite, calls []VecCall) (*PoolBatch, error) {
	p := r.pool
	sh := r.shard
	b := p.batchPool.Get().(*PoolBatch)
	b.req = r
	b.start = sh.head
	b.n = 0
	var err error
	for i := range calls {
		c := &calls[i]
		if _, _, err = r.post(cs, c.ID, c.Data, c.Segs); err != nil {
			break
		}
		b.n++
	}
	if b.n == 0 {
		b.release()
		return nil, err
	}
	return b, err
}

// PoolBatch is the handle to one vectored submit window.  Handles come
// from a sync.Pool and are recycled by WaitAll, so the steady-state
// SubmitV/WaitAll path allocates nothing.
type PoolBatch struct {
	req   *Requester
	start uint64
	n     int
}

// Len returns how many calls the batch posted (smaller than the request
// only after a mid-window timeout or stop).  Capture it before WaitAll,
// which recycles the handle.
func (b *PoolBatch) Len() int { return b.n }

// WaitAll blocks until every call in the batch completes (one await per
// call, in submission order), copying results into rets (when non-nil),
// then recycles the handle.  With the responders parked it first runs
// the whole window itself as one claimed run (see help), and the waits
// collect it.  On ErrStopped the unreaped remainder of the window is
// abandoned with the pool.
func (b *PoolBatch) WaitAll(rets []uint64) error {
	r := b.req
	sh := r.shard
	var err error
	if r.parked && r.help(&sh.slots[(b.start+uint64(b.n-1))&sh.mask]) && r.pool.stopped.Load() {
		r.pool.flight.Stopped(sh.slots[b.start&sh.mask].fr)
		err = ErrStopped
	}
	for j := 0; j < b.n && err == nil; j++ {
		s := &sh.slots[(b.start+uint64(j))&sh.mask]
		if err = r.await(s, s.fr); err == nil && j < len(rets) {
			rets[j] = s.ret
		}
	}
	b.release()
	return err
}

func (b *PoolBatch) release() {
	pool := b.req.pool
	b.req = nil
	b.n = 0
	pool.batchPool.Put(b)
}
