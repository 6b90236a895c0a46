package lighttpd

// PoolServer routes lighttpd's concurrent request path through the
// HotCalls fabric (core.CallPool) — the real-concurrency counterpart of
// the simulated Server above.  Each client connection owns one fabric
// shard and a ring of request buffers; the call word packs the buffer
// slot and the raw request length into a typed uint64, and the return
// word names the response by reference: every response the server can
// produce is one of a finite set of immutable byte images built at Start
// (per document head+body, plus the fixed 404 and 400 heads), so the
// handler answers with an image index and a length and moves no body
// byte — the port's sendfile.  Nothing on the request path allocates,
// and responders serve the immutable images with no locking at all — the
// read-mostly best case for scaling responders.

import (
	"errors"
	"strings"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/flight"
)

// opServeHTTP is the single fabric call table entry: serve one raw
// HTTP/1.0 request.
const opServeHTTP core.CallID = 0

// connWindow is the per-connection buffer ring depth.
const connWindow = 16

// Errors from the connection's submit/collect path.
var (
	// ErrWindowFull reports a Submit with connWindow requests already in
	// flight: collect the oldest PendingResponse first.
	ErrWindowFull = errors.New("lighttpd: connection window full")
	// ErrBadResponse reports a return word that names no response image
	// (the fabric's bad-call-ID sentinel, for one).
	ErrBadResponse = errors.New("lighttpd: fabric returned no valid response reference")
)

// The fixed response images; documents follow from imgFirstDoc.
const (
	imgBadRequest = iota
	imgNotFound
	imgFirstDoc
)

// docImage locates one document's response image and the EPC pages
// serving it touches.
type docImage struct {
	image   int    // index into PoolServer.images
	headLen int    // the image's head prefix — all a HEAD returns
	hash    uint64 // FNV64 of the path: where its EPC pages start
	pages   uint64 // EPC pages the body spans, at least one for the head
}

// The port's flight callsites, one per request method; the constants
// index fabricSpec.Callsites.
const (
	csGet = iota
	csHead
)

var fabricSpec = porting.FabricSpec{
	Callsites: []string{"http.get", "http.head"},
	SealKey:   "www-epc-paging-k",
}

// PoolServer is lighttpd over the fabric: a CallPool whose one table
// entry scans HTTP requests and answers them by reference into an
// immutable set of response images.  The pool's lifecycle and everything
// that observes it are the embedded kit's (Arm, DebugMux, Pool, Stop).
type PoolServer struct {
	porting.Fabric
	docroot map[string][]byte // staged by AddDocument until Start
	conns   []*PoolConn

	// Built by Start and immutable from then on: images[imgBadRequest]
	// and images[imgNotFound] are bare heads, every later entry is one
	// document's head+body.
	images [][]byte
	docs   map[string]docImage
}

// NewPoolServer builds a fabric-routed server for up to conns client
// connections.  The docroot gets the paper's single 20 KB page at
// /index.html; AddDocument extends it before Start.  opts tunes the
// underlying CallPool; its Shards field is overridden.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{docroot: make(map[string][]byte)}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	s.docroot["/index.html"] = page

	s.Fabric = porting.NewFabric(fabricSpec, conns, []core.PoolFunc{s.serve}, opts)
	s.conns = make([]*PoolConn, conns)
	for i := range s.conns {
		s.conns[i] = &PoolConn{s: s, req: s.Pool().Requester()}
	}
	return s
}

// AddDocument installs a document of any size before Start.  The
// response images are built at Start and immutable from then on — that
// is what makes the serve path lock-free and copy-free — so adding a
// document to a started server panics.
func (s *PoolServer) AddDocument(path string, body []byte) {
	if s.images != nil {
		panic("lighttpd: AddDocument after Start: the response images are immutable once responders run")
	}
	s.docroot[path] = append([]byte(nil), body...)
}

// callsiteFor maps a raw request line to its flight callsite with one
// prefix check — full parsing stays on the responder side.
func (s *PoolServer) callsiteFor(raw string) flight.Callsite {
	if strings.HasPrefix(raw, "HEAD ") {
		return s.Callsite(csHead)
	}
	return s.Callsite(csGet)
}

// Start builds the response images — every byte sequence the server can
// answer with, once — and launches the adaptive responder pool.
func (s *PoolServer) Start() {
	s.images = make([][]byte, imgFirstDoc, imgFirstDoc+len(s.docroot))
	s.images[imgBadRequest] = []byte(ResponseHead(400, 0))
	s.images[imgNotFound] = []byte(ResponseHead(404, 0))
	s.docs = make(map[string]docImage, len(s.docroot))
	for path, body := range s.docroot {
		head := ResponseHead(200, len(body))
		s.docs[path] = docImage{
			image:   len(s.images),
			headLen: len(head),
			hash:    porting.FNV64(path),
			pages:   max(1, porting.PagesOf(len(body))),
		}
		s.images = append(s.images, append([]byte(head), body...))
	}
	s.docroot = nil // the images own the bytes now
	s.Fabric.Start()
}

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// packData packs a request's (buffer slot, length) into the call word
// and a response's (image index, length) into the return word.
func packData(hi, n int) uint64 { return uint64(hi)<<32 | uint64(uint32(n)) }

func unpackData(d uint64) (hi, n uint64) { return d >> 32, d & (1<<32 - 1) }

// serve is the enclave-side handler: scan the raw request in place in
// the submitting connection's slot buffer, look the path up among the
// document images, and return a reference to the answer — image index
// and length, a HEAD's length stopping at the head.  No response byte
// is built or copied.  Malformed requests get a real 400, not an error:
// a web server answers bad clients on the wire — and so does a call word,
// the untrusted side's to write, that names a slot outside the window or
// a length past the buffer.
func (s *PoolServer) serve(requester int, data uint64) uint64 {
	slot, n := unpackData(data)
	if slot >= connWindow || n > readCap {
		return packData(imgBadRequest, len(s.images[imgBadRequest]))
	}
	raw := s.conns[requester].bufs[slot][:n]
	rl, err := scanRequest(raw, nil)
	if err != nil {
		return packData(imgBadRequest, len(s.images[imgBadRequest]))
	}
	path := raw[rl.path.lo:rl.path.hi]
	doc, ok := s.docs[string(path)]
	if !ok {
		s.TouchEPC(requester, porting.FNV64(path), 1)
		return packData(imgNotFound, len(s.images[imgNotFound]))
	}
	s.TouchEPC(requester, doc.hash, doc.pages)
	if rl.head {
		return packData(doc.image, doc.headLen)
	}
	return packData(doc.image, len(s.images[doc.image]))
}

// PoolConn is one client connection: a fabric requester plus its ring
// of request buffers.  Submissions complete in FIFO order per
// connection; collect oldest-first.
type PoolConn struct {
	s        *PoolServer
	req      *core.Requester
	bufs     [connWindow][readCap]byte
	next     int
	inflight int
}

// PendingResponse is an in-flight request's handle.
type PendingResponse struct {
	c  *PoolConn
	pd *core.PoolPending
}

// Submit copies the raw request into the next ring buffer and posts it
// to the fabric.  It fails with ErrWindowFull when connWindow requests
// are in flight — collect the oldest PendingResponse first.
func (c *PoolConn) Submit(raw string) (PendingResponse, error) {
	if c.inflight == connWindow {
		return PendingResponse{}, ErrWindowFull
	}
	if len(raw) > readCap {
		return PendingResponse{}, ErrBadRequest
	}
	slot := c.next
	n := copy(c.bufs[slot][:], raw)
	pd, err := c.req.SubmitAt(c.s.callsiteFor(raw), opServeHTTP, packData(slot, n))
	if err != nil {
		return PendingResponse{}, err
	}
	c.next = (c.next + 1) % connWindow
	c.inflight++
	return PendingResponse{c: c, pd: pd}, nil
}

// response decodes a return word into the bytes it names, a view of one
// of the immutable response images, or ErrBadResponse when the index or
// the length is out of range.
func (s *PoolServer) response(ret uint64) ([]byte, error) {
	img, n := unpackData(ret)
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
	ret, err := pr.pd.Wait()
	pr.c.inflight--
	if err != nil {
		return nil, err
	}
	return pr.c.s.response(ret)
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
