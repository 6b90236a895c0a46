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
// real bytes, indexed by the FNV64 hash serve computes once per request.

import (
	"errors"
	"sync"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/flight"
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

// The port's flight callsites, one per operation, so GETs, SETs and
// DELETEs show up as separate rows in the stats table instead of one
// undifferentiated stream; callsiteOps holds each one's opcode.
var (
	fabricSpec = porting.FabricSpec{
		Callsites: []string{"mc.get", "mc.set", "mc.delete"},
		SealKey:   "mc-epc-paging-kv",
	}
	callsiteOps = [...]byte{OpGet, OpSet, OpDelete}
)

// PoolServer is memcached over the fabric: a CallPool whose one table
// entry serves binary-protocol requests against the shared store.  The
// pool's lifecycle and everything that observes it are the embedded kit's
// (Arm, DebugMux, Pool, Start, Stop).
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

// callsiteFor maps a request opcode to its registered flight callsite.
func (s *PoolServer) callsiteFor(op byte) flight.Callsite {
	for i, o := range callsiteOps {
		if o == op {
			return s.Callsite(i)
		}
	}
	return flight.Callsite{}
}

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// packData encodes a buffer slot and request length into the fabric's
// call word; the pair is everything the handler needs to find its bytes.
func packData(slot, n int) uint64 { return uint64(slot)<<32 | uint64(uint32(n)) }

func unpackData(d uint64) (slot, n uint64) { return d >> 32, d & (1<<32 - 1) }

// serve is the enclave-side handler: decode the request in place from
// the submitting connection's slot buffer, execute it against the store,
// and encode the response into the paired response buffer.  The returned
// word is the response length (or the ^0 sentinel on a malformed
// packet, mirroring the corrupted-call_ID convention).  The call word is
// the untrusted side's to write: a slot outside the window or a length
// past the buffer is a malformed packet too, never an index.
func (s *PoolServer) serve(requester int, data uint64) uint64 {
	slot, n := unpackData(data)
	if slot >= connWindow || n > bufCap {
		return ^uint64(0)
	}
	b := &s.conns[requester].bufs[slot]
	req, err := decodeRequest(b.req[:n])
	if err != nil {
		return ^uint64(0)
	}
	// The key is hashed once: the hash picks the stripe, indexes its table
	// and places the request's EPC pages.  A GET's value is copied once,
	// under the stripe lock, to its place behind the header (the response
	// buffer holds anything a request buffer could carry); EncodeResponse
	// finds source and destination identical and moves nothing.
	h := porting.FNV64(req.key)
	sp := &s.store[h&(storeStripes-1)]
	resp := Response{Op: req.op, Opaque: req.opaque, Status: StatusOK}
	sp.mu.Lock()
	switch req.op {
	case OpGet:
		if v, ok := sp.items.get(h, req.key); ok {
			resp.Value = b.resp[HeaderSize : HeaderSize+copy(b.resp[HeaderSize:], v)]
		} else {
			resp.Status = StatusNotFound
		}
	case OpSet:
		sp.items.set(h, req.key, req.value)
	case OpDelete:
		if !sp.items.delete(h, req.key) {
			resp.Status = StatusNotFound
		}
	}
	sp.mu.Unlock()
	if s.EPCManager() != nil {
		// The key's hash places the request in the modeled heap; its
		// footprint is the value a GET returned or a SET stored, at least
		// one page.
		s.TouchEPC(requester, h, max(1, porting.PagesOf(len(resp.Value)+len(req.value))))
	}
	respLen, err := EncodeResponse(b.resp, &resp)
	if err != nil {
		return ^uint64(0)
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
// shard), so collecting oldest-first keeps the window moving and makes
// buffer-slot reuse safe.
type PoolConn struct {
	s        *PoolServer
	req      *core.Requester
	bufs     [connWindow]connBuf
	next     int
	inflight int
}

// PendingResponse is an in-flight request's handle.
type PendingResponse struct {
	c    *PoolConn
	pd   *core.PoolPending
	slot int
}

// ErrWindowFull reports a Submit with connWindow requests already in
// flight: collect the oldest PendingResponse first.
var ErrWindowFull = errors.New("memcached: connection window full")

// Submit encodes the request into the next ring buffer and posts it to
// the fabric.  It fails with ErrWindowFull when connWindow requests are
// in flight — collect the oldest PendingResponse first.
func (c *PoolConn) Submit(r *Request) (PendingResponse, error) {
	if c.inflight == connWindow {
		return PendingResponse{}, ErrWindowFull
	}
	slot := c.next
	n, err := EncodeRequest(c.bufs[slot].req, r)
	if err != nil {
		return PendingResponse{}, err
	}
	pd, err := c.req.SubmitAt(c.s.callsiteFor(r.Op), opServe, packData(slot, n))
	if err != nil {
		return PendingResponse{}, err
	}
	c.next = (c.next + 1) % connWindow
	c.inflight++
	return PendingResponse{c: c, pd: pd, slot: slot}, nil
}

// Wait blocks until the response is ready and decodes it.  The decoded
// Response is the slot's own and aliases its buffer: consume it before
// the slot comes around again (connWindow submissions later).
func (pr PendingResponse) Wait() (*Response, error) {
	ret, err := pr.pd.Wait()
	pr.c.inflight--
	if err != nil {
		return nil, err
	}
	if ret == ^uint64(0) {
		return nil, ErrShortPacket
	}
	b := &pr.c.bufs[pr.slot]
	if err := decodeResponse(&b.out, b.resp[:ret]); err != nil {
		return nil, err
	}
	return &b.out, nil
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
