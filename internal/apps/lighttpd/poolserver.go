package lighttpd

// PoolServer routes lighttpd's concurrent request path through the
// HotCalls fabric (core.CallPool) — the real-concurrency counterpart of
// the simulated Server above.  Each client connection owns one fabric
// shard and a request buffer per ring slot; the call word packs the ring
// slot and the raw request length into a typed uint64, and the return
// word names the response by reference: every response the server can
// produce is one of a finite set of immutable byte images built at
// construction (the page's head+body, plus the fixed 404 and 400 heads),
// so the handler answers with an image index and a length and moves no
// body byte — the port's sendfile.  Nothing on the request path allocates,
// and responders serve the immutable images with no locking at all — the
// read-mostly best case for scaling responders.

import (
	"bytes"
	"errors"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// opServeHTTP is the single fabric call table entry: serve one raw
// HTTP/1.0 request.
const opServeHTTP core.CallID = 0

// ErrBadResponse reports a return word that names no response image (the
// fabric's bad-call-ID sentinel, for one).
var ErrBadResponse = errors.New("lighttpd: fabric returned no valid response reference")

// The response images.
const (
	imgBadRequest = iota
	imgNotFound
	imgIndex
)

// PoolServer is lighttpd over the fabric: a CallPool whose one table
// entry scans HTTP requests and answers them by reference into an
// immutable set of response images.  The pool and its lifecycle are the
// embedded kit's (Pool, Start, Stop).
type PoolServer struct {
	porting.Fabric
	conns []*PoolConn

	// Built by NewPoolServer and immutable from then on:
	// images[imgBadRequest] and images[imgNotFound] are bare heads,
	// images[imgIndex] is the page's head+body.
	images [][]byte
	// The page's head prefix: all a HEAD returns.
	indexHead int
}

// NewPoolServer builds a fabric-routed server for up to conns client
// connections, serving the paper's single 20 KB page at /index.html.  It
// builds the response images — every byte sequence the server can answer
// with, once; they are immutable from then on, which is what makes the
// serve path lock-free and copy-free.  opts tunes the underlying
// CallPool; its Shards and SlotsPerShard fields are overridden (one
// shard of porting.Window slots per connection).
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	page := indexPage()
	head := ResponseHead(200, len(page))
	s := &PoolServer{
		images: [][]byte{
			imgBadRequest: []byte(ResponseHead(400, 0)),
			imgNotFound:   []byte(ResponseHead(404, 0)),
			imgIndex:      append([]byte(head), page...),
		},
		indexHead: len(head),
	}
	s.Fabric = porting.NewFabric(conns, []core.PoolFunc{s.serve}, opts)
	s.conns = make([]*PoolConn, conns)
	for i := range s.conns {
		s.conns[i] = &PoolConn{s: s, req: s.Pool().Requester()}
	}
	return s
}

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// serve is the enclave-side handler: route the raw request in place in
// the submitting connection's slot buffer, match the path against the
// page, and return a reference to the answer — image index
// and length, a HEAD's length stopping at the head.  No response byte
// is built or copied.  Malformed requests get a real 400, not an error:
// a web server answers bad clients on the wire — and so does a call word,
// the untrusted side's to write, that names a slot outside the window or
// a length past the buffer.
func (s *PoolServer) serve(requester int, data uint64) uint64 {
	slot, n := porting.UnpackData(data)
	if slot >= porting.Window {
		return porting.PackData(imgBadRequest, len(s.images[imgBadRequest]))
	}
	status, path, head := route(s.conns[requester].bufs[slot][:], n)
	if status != 200 {
		return porting.PackData(imgBadRequest, len(s.images[imgBadRequest]))
	}
	if !bytes.Equal(path, indexPath) {
		return porting.PackData(imgNotFound, len(s.images[imgNotFound]))
	}
	if head {
		return porting.PackData(imgIndex, s.indexHead)
	}
	return porting.PackData(imgIndex, len(s.images[imgIndex]))
}

// PoolConn is one client connection: a fabric requester plus a request
// buffer per ring slot.  The requester's ring is the connection's window:
// a request takes the slot the next post does (core.Requester.Next), and
// its buffer until its PendingResponse is collected.  Submissions complete
// in FIFO order per connection; collect oldest-first.
type PoolConn struct {
	s    *PoolServer
	req  *core.Requester
	bufs [porting.Window][readCap]byte
}

// PendingResponse is an in-flight request's handle.
type PendingResponse struct {
	c *PoolConn
	b *core.PoolBatch
}

// Submit copies the raw request into the next ring slot's buffer and
// posts it to the fabric.  It fails with core.ErrWindowFull while that
// slot's previous request is uncollected — with porting.Window requests in
// flight, or with fewer when responses were collected out of order —
// collect the oldest PendingResponse first.
func (c *PoolConn) Submit(raw string) (PendingResponse, error) {
	slot, free := c.req.Next()
	if !free {
		return PendingResponse{}, core.ErrWindowFull
	}
	if len(raw) > readCap {
		return PendingResponse{}, ErrBadRequest
	}
	n := copy(c.bufs[slot][:], raw)
	b, err := c.req.SubmitV([]core.VecCall{{ID: opServeHTTP, Data: porting.PackData(slot, n)}})
	if err != nil {
		return PendingResponse{}, err
	}
	return PendingResponse{c: c, b: b}, nil
}

// response decodes a return word into the bytes it names, a view of one
// of the immutable response images, or ErrBadResponse when the index or
// the length is out of range.
func (s *PoolServer) response(ret uint64) ([]byte, error) {
	img, n := porting.UnpackData(ret)
	if img >= uint64(len(s.images)) || n > uint64(len(s.images[img])) {
		return nil, ErrBadResponse
	}
	return s.images[img][:n:n], nil
}

// Wait blocks until the response is ready and returns it (ErrBadResponse
// when the fabric's return word names none).  The slice is a view of one
// of the server's immutable response images: read-only — every
// connection answered with that document shares it — and valid for the
// life of the server.
func (pr PendingResponse) Wait() ([]byte, error) {
	var ret [1]uint64
	if err := pr.b.WaitAll(ret[:]); err != nil {
		return nil, err
	}
	return pr.c.s.response(ret[0])
}

// Do is the synchronous path: one raw request through the fabric,
// blocking for its response.
func (c *PoolConn) Do(raw string) ([]byte, error) {
	pr, err := c.Submit(raw)
	if err != nil {
		return nil, err
	}
	return pr.Wait()
}
