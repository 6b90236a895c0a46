package memcached

// PoolServer routes memcached's concurrent request path through the
// HotCalls fabric (core.CallPool) — the real-concurrency counterpart of
// the simulated Server above.  Each client connection owns one fabric
// shard and a small ring of request/response buffers; the call word
// stays a typed uint64 (buffer slot + encoded length packed into the
// data word), so the submit/complete path allocates nothing and the
// enclave handler addresses the right buffers from the (requester, slot)
// pair alone.  The store is the enclave-side state: a striped-lock hash
// map holding real bytes, shared by every responder.

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

// storeStripes is the lock striping of the shared store; a power of two.
const storeStripes = 16

// poolStore is the enclave-side key-value state the responders execute
// against: real bytes behind striped locks, so responders serving
// different keys rarely contend.
type poolStore struct {
	stripes [storeStripes]storeStripe
}

type storeStripe struct {
	mu    sync.Mutex
	items map[string][]byte
	_     [cacheLinePad]byte
}

// cacheLinePad keeps adjacent stripes' locks off one coherence line.
const cacheLinePad = 64

func newPoolStore() *poolStore {
	st := &poolStore{}
	for i := range st.stripes {
		st.stripes[i].items = make(map[string][]byte)
	}
	return st
}

// stripe picks the lock stripe for a key.  Keys alias a connection's
// request buffer; the m[string(key)] lookups below do not allocate.
func (st *poolStore) stripe(key []byte) *storeStripe {
	return &st.stripes[porting.FNV64(key)&(storeStripes-1)]
}

func (st *poolStore) set(key, value []byte) {
	sp := st.stripe(key)
	sp.mu.Lock()
	// Reuse the existing backing array when it fits so a hot SET key
	// settles into a stable allocation; at an unchanged length the map
	// entry already describes the result and is left alone.
	if dst, ok := sp.items[string(key)]; ok && cap(dst) >= len(value) {
		copy(dst[:len(value)], value)
		if len(dst) != len(value) {
			sp.items[string(key)] = dst[:len(value)]
		}
	} else {
		sp.items[string(key)] = append([]byte(nil), value...)
	}
	sp.mu.Unlock()
}

// get copies the value for key into dst and returns the copied length
// and whether the key existed.  Copying under the stripe lock is what
// lets the caller read the response buffer without holding any lock.
func (st *poolStore) get(key, dst []byte) (int, bool) {
	sp := st.stripe(key)
	sp.mu.Lock()
	v, ok := sp.items[string(key)]
	n := copy(dst, v)
	sp.mu.Unlock()
	return n, ok
}

func (st *poolStore) delete(key []byte) bool {
	sp := st.stripe(key)
	sp.mu.Lock()
	_, ok := sp.items[string(key)]
	delete(sp.items, string(key))
	sp.mu.Unlock()
	return ok
}

// The port's flight callsites, one per operation, so GETs, SETs and
// DELETEs show up as separate rows in the stats table instead of one
// undifferentiated stream; the constants index fabricSpec.Callsites.
const (
	csGet = iota
	csSet
	csDelete
)

var fabricSpec = porting.FabricSpec{
	Callsites: []string{"mc.get", "mc.set", "mc.delete"},
	SealKey:   "mc-epc-paging-kv",
}

// PoolServer is memcached over the fabric: a CallPool whose one table
// entry serves binary-protocol requests against the shared store.  The
// pool's lifecycle and everything that observes it are the embedded kit's
// (Arm, DebugMux, Pool, Start, Stop).
type PoolServer struct {
	porting.Fabric
	store *poolStore
	conns []*PoolConn
}

// NewPoolServer builds a fabric-routed server for up to conns client
// connections.  opts tunes the underlying CallPool; its Shards field is
// overridden to the connection count.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{store: newPoolStore()}
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
	switch op {
	case OpGet:
		return s.Callsite(csGet)
	case OpSet:
		return s.Callsite(csSet)
	case OpDelete:
		return s.Callsite(csDelete)
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
	resp := Response{Op: req.op, Opaque: req.opaque, Status: StatusOK}
	switch req.op {
	case OpGet:
		// The value is copied once, under the stripe lock, to its place
		// behind the header (the response buffer holds anything a request
		// buffer could carry); EncodeResponse's copy finds source and
		// destination identical and moves nothing.
		if n, ok := s.store.get(req.key, b.resp[HeaderSize:]); ok {
			resp.Value = b.resp[HeaderSize : HeaderSize+n]
		} else {
			resp.Status = StatusNotFound
		}
	case OpSet:
		s.store.set(req.key, req.value)
	case OpDelete:
		if !s.store.delete(req.key) {
			resp.Status = StatusNotFound
		}
	}
	if s.EPCManager() != nil {
		// The key's hash places the request in the modeled heap; its
		// footprint is the value a GET returned or a SET stored, at least
		// one page.
		s.TouchEPC(requester, porting.FNV64(req.key), max(1, porting.PagesOf(len(resp.Value)+len(req.value))))
	}
	respLen, err := EncodeResponse(b.resp, &resp)
	if err != nil {
		return ^uint64(0)
	}
	return uint64(respLen)
}

// connBuf is one in-flight request's buffer set.  store.get copies a
// GET's value into resp, so a response never aliases live store memory
// once the stripe lock is released; out is the decoded response Wait
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
