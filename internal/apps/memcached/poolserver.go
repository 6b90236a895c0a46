package memcached

// PoolServer routes memcached's concurrent request path through the
// HotCalls fabric (core.CallPool) — the real-concurrency counterpart of
// the simulated Server above.  Each client connection owns one fabric
// shard and a request/response buffer pair per ring slot; the call word
// stays a typed uint64 (ring slot + encoded length packed into the data
// word), so the submit/complete path allocates nothing and the enclave
// handler addresses the right buffers from the (requester, slot) pair
// alone.  The store is the enclave-side state, shared by every
// responder: sixteen lock stripes, each an item table (table.go) holding
// real bytes, indexed by the key's FNV64 hash, computed once per request
// when it is decoded.

import (
	"sync"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// opServe is the single fabric call table entry: serve one encoded
// memcached binary-protocol request.
const opServe core.CallID = 0

// The shared store is storeStripes lock stripes, a power of two; the low
// stripeBits of a key's hash pick its stripe.
const stripeBits = 4
const storeStripes = 1 << stripeBits

// storeStripe is one lock stripe of the enclave-side key-value state the
// responders execute against: real bytes in an item table behind its own
// lock, so responders serving different keys rarely contend.
type storeStripe struct {
	mu    sync.Mutex
	items itemTable
	_     [64]byte // keeps adjacent stripes' locks off one coherence line
}

// PoolServer is memcached over the fabric: a CallPool whose one table
// entry serves binary-protocol requests against the shared store.  The
// pool's lifecycle and everything that observes it are the embedded kit's
// (Arm, Pool, Start, Stop).
type PoolServer struct {
	porting.Fabric
	store *[storeStripes]storeStripe
	conns []*PoolConn
}

// NewPoolServer builds a fabric-routed server for up to conns client
// connections.  opts tunes the underlying CallPool; its Shards and
// SlotsPerShard fields are overridden (one shard of porting.Window slots
// per connection).
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{store: new([storeStripes]storeStripe)}
	s.Fabric = porting.NewFabric("mc", conns, []core.PoolFunc{s.serve}, opts)
	s.conns = make([]*PoolConn, conns)
	for i := range s.conns {
		c := &PoolConn{s: s, req: s.Pool().Requester()}
		for j := range c.bufs {
			c.bufs[j].req = make([]byte, bufCap)
			c.bufs[j].resp = make([]byte, bufCap)
		}
		s.conns[i] = c
	}
	return s
}

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// serve is the enclave-side handler: decode the request in place from
// the submitting connection's slot buffer and execute it under its
// stripe's lock, the response encoded into the paired response buffer.
// The returned word is the response length (or the ^0 sentinel on a
// malformed packet, mirroring the corrupted-call_ID convention).  The
// call word is the untrusted side's to write: a slot outside the window
// or a length past the buffer is a malformed packet too, never an index.
func (s *PoolServer) serve(requester int, data uint64) uint64 {
	slot, n := porting.UnpackData(data)
	if slot >= porting.Window {
		return ^uint64(0)
	}
	b := &s.conns[requester].bufs[slot]
	req, err := decodeRequest(b.req, n)
	if err != nil {
		return ^uint64(0)
	}
	// The key's hash picks the stripe, indexes its table and places the
	// request's EPC pages.
	sp := &s.store[req.hash&(storeStripes-1)]
	sp.mu.Lock()
	respLen, moved := execute(&sp.items, &req, b.resp)
	sp.mu.Unlock()
	if s.EPCManager() != nil {
		// The request's footprint is the value a GET returned or a SET
		// stored, at least one page.
		s.TouchEPC(requester, req.hash, max(1, porting.PagesOf(moved)))
	}
	return uint64(respLen)
}

// connBuf is one in-flight request's buffer set.  serve copies a GET's
// value out of its item into resp; out is the decoded response Wait
// hands back, owned by the slot like the bytes it aliases.
type connBuf struct {
	req  []byte
	resp []byte
	out  Response
}

// PoolConn is one client connection: a fabric requester plus a buffer
// set per ring slot.  The requester's ring is the connection's window: a
// request takes the slot the next post does (core.Requester.Next), and its
// buffers until its PendingResponse is collected.  Submissions complete in
// FIFO order (the fabric ring is FIFO per shard), so collecting
// oldest-first keeps the window moving.
type PoolConn struct {
	s    *PoolServer
	req  *core.Requester
	bufs [porting.Window]connBuf
}

// PendingResponse is an in-flight request's handle.
type PendingResponse struct {
	c    *PoolConn
	b    *core.PoolBatch
	slot int
}

// Submit encodes the request into the next ring slot's buffer and posts
// it to the fabric.  It fails with core.ErrWindowFull while that slot's
// previous request is uncollected — with porting.Window requests in
// flight, or with fewer when responses were collected out of order —
// collect the oldest PendingResponse first.
func (c *PoolConn) Submit(r *Request) (PendingResponse, error) {
	slot, free := c.req.Next()
	if !free {
		return PendingResponse{}, core.ErrWindowFull
	}
	n, err := EncodeRequest(c.bufs[slot].req, r)
	if err != nil {
		return PendingResponse{}, err
	}
	b, err := c.req.SubmitV([]core.VecCall{{ID: opServe, Data: porting.PackData(slot, n), Site: c.s.Callsite()}})
	if err != nil {
		return PendingResponse{}, err
	}
	return PendingResponse{c: c, b: b, slot: slot}, nil
}

// Wait blocks until the response is ready and decodes it.  The decoded
// Response is the slot's own and aliases its buffer: consume it before
// the slot comes around again (porting.Window submissions later).
func (pr PendingResponse) Wait() (*Response, error) {
	var ret [1]uint64
	if err := pr.b.WaitAll(ret[:]); err != nil {
		return nil, err
	}
	if ret[0] == ^uint64(0) {
		return nil, ErrShortPacket
	}
	b := &pr.c.bufs[pr.slot]
	return decodeResponse(&b.out, b.resp[:ret[0]])
}

// Do is the synchronous path: one request through the fabric, blocking
// for its response.
func (c *PoolConn) Do(r *Request) (*Response, error) {
	pr, err := c.Submit(r)
	if err != nil {
		return nil, err
	}
	return pr.Wait()
}
