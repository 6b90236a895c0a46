package memcached

// PoolServer routes memcached's concurrent request path through the
// HotCalls fabric (core.CallPool) — the real-concurrency counterpart of
// the simulated Server above.  Each client connection owns one fabric
// shard and a small ring of request/response buffers; the call word
// stays a typed uint64 (buffer slot + encoded length packed into the
// data word), so the submit/complete path allocates nothing and the
// enclave handler addresses the right buffers from the (requester, slot)
// pair alone.  The store is the enclave-side state, shared by every
// responder: sixteen lock stripes, each an item table (table.go) holding
// real bytes, indexed by the key's FNV64 hash, computed once per request
// when it is decoded.

import (
	"errors"
	"sync"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// opServe is the single fabric call table entry: serve one encoded
// memcached binary-protocol request.
const opServe core.CallID = 0

// connWindow is the per-connection buffer ring depth — the async window
// a connection may keep in flight.
const connWindow = 16

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

// fabricSpec names the port's one flight callsite.
var fabricSpec = porting.FabricSpec{Callsite: "mc"}

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
// connections.  opts tunes the underlying CallPool; its Shards field is
// overridden to the connection count.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{store: new([storeStripes]storeStripe)}
	s.Fabric = porting.NewFabric(fabricSpec, conns, []core.PoolFunc{s.serve}, opts)
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
	if slot >= connWindow {
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

// PoolConn is one client connection: a fabric requester plus its buffer
// ring.  Submissions complete in FIFO order (the fabric ring is FIFO per
// shard), so collecting oldest-first keeps the window moving.  A slot is
// reused only once its PendingResponse has been collected.
type PoolConn struct {
	s    *PoolServer
	req  *core.Requester
	bufs [connWindow]connBuf
	busy [connWindow]bool // submitted, not yet collected
	next int
}

// PendingResponse is an in-flight request's handle.
type PendingResponse struct {
	c    *PoolConn
	b    *core.PoolBatch
	slot int
}

// ErrWindowFull reports a Submit whose next ring buffer still belongs to
// an uncollected request: collect the oldest PendingResponse first.
var ErrWindowFull = errors.New("memcached: connection window full")

// Submit encodes the request into the next ring buffer and posts it to
// the fabric.  It fails with ErrWindowFull while that buffer's previous
// request is uncollected — with connWindow requests in flight, or with
// fewer when responses were collected out of order — collect the oldest
// PendingResponse first.
func (c *PoolConn) Submit(r *Request) (PendingResponse, error) {
	if c.busy[c.next] {
		return PendingResponse{}, ErrWindowFull
	}
	slot := c.next
	n, err := EncodeRequest(c.bufs[slot].req, r)
	if err != nil {
		return PendingResponse{}, err
	}
	b, err := c.req.SubmitV([]core.VecCall{{ID: opServe, Data: porting.PackData(slot, n), Site: c.s.Callsite()}})
	if err != nil {
		return PendingResponse{}, err
	}
	c.busy[slot] = true
	c.next = (c.next + 1) % connWindow
	return PendingResponse{c: c, b: b, slot: slot}, nil
}

// Wait blocks until the response is ready and decodes it.  The decoded
// Response is the slot's own and aliases its buffer: consume it before
// the slot comes around again (connWindow submissions later).
func (pr PendingResponse) Wait() (*Response, error) {
	var ret [1]uint64
	err := pr.b.WaitAll(ret[:])
	pr.c.busy[pr.slot] = false
	if err != nil {
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
