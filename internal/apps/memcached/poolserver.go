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
	"fmt"
	"sync"

	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
	"hotcalls/internal/whatif"
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

// fnv64 is FNV-1a over a key in either of its forms: the stripe picker
// and the EPC page mapping share it.
func fnv64[K string | []byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// stripe picks the lock stripe for a key.  Keys alias a connection's
// request buffer; the m[string(key)] lookups below do not allocate.
func (st *poolStore) stripe(key []byte) *storeStripe {
	return &st.stripes[fnv64(key)&(storeStripes-1)]
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

// PoolServer is memcached over the fabric: a CallPool whose one table
// entry serves binary-protocol requests against the shared store.
type PoolServer struct {
	pool  *core.CallPool
	store *poolStore
	conns []*PoolConn

	reg    *telemetry.Registry
	mon    *monitor.Monitor
	cap    *incident.Capturer
	whatIf *whatif.Observatory

	// EPC paging model (EnableEPC): every served request touches the
	// pages its key/value footprint occupies, owner-tagged by
	// connection, so the observatory attributes paging pressure per
	// client.
	epcMgr  *epc.Manager
	epcStat *epcstat.Collector

	// Per-operation flight callsites (zero handles — unlabelled — until
	// SetFlight registers them).
	csGet, csSet, csDelete flight.Callsite
}

// NewPoolServer builds a fabric-routed server for up to conns client
// connections.  opts tunes the underlying CallPool; its Shards field is
// overridden to the connection count.
func NewPoolServer(conns int, opts core.PoolOptions) *PoolServer {
	s := &PoolServer{store: newPoolStore()}
	opts.Shards = conns
	s.conns = make([]*PoolConn, conns)
	s.pool = core.NewCallPool([]core.PoolFunc{s.serve}, opts)
	for i := range s.conns {
		c := &PoolConn{s: s, req: s.pool.Requester()}
		for j := range c.bufs {
			c.bufs[j].req = make([]byte, bufCap)
			c.bufs[j].resp = make([]byte, bufCap)
		}
		s.conns[i] = c
	}
	return s
}

// SetTelemetry attaches the fabric's registry handles.  Call before
// Start.
func (s *PoolServer) SetTelemetry(reg *telemetry.Registry) {
	s.reg = reg
	s.pool.SetTelemetry(reg)
}

// SetFlight attaches the flight recorder to the fabric and registers
// the per-operation callsites, so GETs, SETs, and DELETEs show up as
// separate rows in the stats table instead of one undifferentiated
// stream.  Call before Start.
func (s *PoolServer) SetFlight(rec *flight.Recorder) {
	s.pool.SetFlight(rec)
	s.csGet = rec.Callsite("mc.get")
	s.csSet = rec.Callsite("mc.set")
	s.csDelete = rec.Callsite("mc.delete")
}

// callsiteFor maps a request opcode to its registered flight callsite.
func (s *PoolServer) callsiteFor(op byte) flight.Callsite {
	switch op {
	case OpGet:
		return s.csGet
	case OpSet:
		return s.csSet
	case OpDelete:
		return s.csDelete
	}
	return flight.Callsite{}
}

// enclavePageSpan sizes the modeled enclave heap in multiples of the EPC
// capacity: keys hash across a region 16x the EPC, so residency pressure
// comes from how many distinct pages traffic actually touches, not from
// hash collisions.
const enclavePageSpan = 16

// EnableEPC attaches a simulated EPC of the given capacity (bytes;
// <= one page selects epc.DefaultCapacityBytes) plus its pressure
// observatory.  Every served request then touches the pages its
// key/value footprint maps to, owner-tagged by client connection, so
// /debug/epc and the EPC monitor rules attribute paging per client.
// Call after SetTelemetry and before EnableMonitor/DebugMux so the
// counters and rules wire up; idempotent: repeat calls return the same
// collector.
func (s *PoolServer) EnableEPC(capacityBytes int) *epcstat.Collector {
	if s.epcStat == nil {
		if capacityBytes <= epc.PageSize {
			capacityBytes = epc.DefaultCapacityBytes
		}
		var sealKey [16]byte
		copy(sealKey[:], "mc-epc-paging-kv")
		s.epcMgr = epc.NewManager(capacityBytes, sealKey)
		if s.reg != nil {
			s.epcMgr.SetTelemetry(s.reg)
		}
		s.epcStat = epcstat.New(epcstat.Options{})
		s.epcStat.Attach(s.epcMgr)
		for i := range s.conns {
			s.epcStat.SetLabel(epc.OwnerID(i+1), fmt.Sprintf("conn%d", i))
		}
	}
	return s.epcStat
}

// EPCManager exposes the simulated EPC (nil until EnableEPC).
func (s *PoolServer) EPCManager() *epc.Manager { return s.epcMgr }

// touchEPC charges the paging cost of one request: the pages of the
// key's value footprint (at least one), owner-tagged by the submitting
// connection.  Called only once EnableEPC has armed the model.
func (s *PoolServer) touchEPC(requester int, key []byte, valueLen int) {
	span := uint64(enclavePageSpan * s.epcMgr.CapacityPages())
	base := fnv64(key) % span
	pages := uint64(valueLen+epc.PageSize-1) / epc.PageSize
	if pages == 0 {
		pages = 1
	}
	owner := epc.OwnerID(requester + 1)
	for p := uint64(0); p < pages; p++ {
		s.epcMgr.TouchAs(owner, (base+p)%span)
	}
}

// EnableWhatIf attaches the causal what-if observatory: the shadow
// router scores every monitor interval's per-callsite traffic against
// the three routing policies (the fabric's operations are declared
// pooled — that is how PoolServer actually routes), /debug/whatif
// serves the report, and the routing-regret monitor rule flags
// callsites whose traffic outgrew the static choice.  A zero params
// selects whatif.DefaultCostParams.  Call after SetFlight and before
// EnableMonitor/DebugMux; idempotent.
func (s *PoolServer) EnableWhatIf(params whatif.CostParams) *whatif.Observatory {
	if s.whatIf == nil {
		s.whatIf = whatif.NewObservatory(params)
		r := s.whatIf.Router()
		r.DeclareDefault(whatif.PolicyPooled)
		r.Declare("mc.get", whatif.PolicyPooled)
		r.Declare("mc.set", whatif.PolicyPooled)
		r.Declare("mc.delete", whatif.PolicyPooled)
	}
	return s.whatIf
}

// WhatIf exposes the what-if observatory (nil until EnableWhatIf).
func (s *PoolServer) WhatIf() *whatif.Observatory { return s.whatIf }

// EnableMonitor attaches a health monitor over the fabric's registry,
// with the flight recorder (when attached) feeding the callsite-scoped
// rules, the EPC observatory (when enabled) feeding the EPC rules, and
// the what-if observatory (when enabled) feeding the routing-regret
// rule.  Idempotent: repeat calls return the same monitor.
func (s *PoolServer) EnableMonitor(opts monitor.Options) *monitor.Monitor {
	if s.mon == nil {
		if opts.Flight == nil {
			opts.Flight = s.pool.Flight()
		}
		if opts.EPC == nil {
			opts.EPC = s.epcStat
		}
		if opts.WhatIf == nil {
			opts.WhatIf = s.whatIf
		}
		s.mon = monitor.New(s.reg, opts)
	}
	return s.mon
}

// EnableIncidents attaches an incident capturer to the monitor
// (enabling the monitor with defaults if needed): warning/critical rule
// transitions freeze self-contained postmortem bundles, served at
// /debug/incidents by DebugMux.  The fabric's registry is snapshotted
// into each bundle unless opts names another.  Idempotent: repeat calls
// return the same capturer.
func (s *PoolServer) EnableIncidents(opts incident.Options) *incident.Capturer {
	if s.cap == nil {
		if opts.Registry == nil {
			opts.Registry = s.reg
		}
		s.cap = incident.New(s.EnableMonitor(monitor.Options{}), opts)
		s.cap.Attach()
	}
	return s.cap
}

// DebugMux serves the fabric's observability surface: /metrics, a
// /debug/ index listing every endpoint, /debug/health, /debug/monitor,
// /debug/incidents, and — per enabled collector — /debug/flight,
// /debug/epc, and /debug/whatif.
func (s *PoolServer) DebugMux() *monitor.DebugMux {
	mux := monitor.Mux(s.reg, s.EnableMonitor(monitor.Options{}))
	mux.HandleEntry("/debug/incidents", "frozen postmortem bundles (rule transitions)",
		incident.Handler(s.EnableIncidents(incident.Options{})))
	return mux
}

// Pool exposes the underlying CallPool (responder bounds, stats).
func (s *PoolServer) Pool() *core.CallPool { return s.pool }

// Start launches the adaptive responder pool.
func (s *PoolServer) Start() { s.pool.Start() }

// Stop shuts the fabric down.
func (s *PoolServer) Stop() { s.pool.Stop() }

// Conn returns connection i's handle.  Each connection must be driven
// from one goroutine at a time.
func (s *PoolServer) Conn(i int) *PoolConn { return s.conns[i] }

// packData encodes a buffer slot and request length into the fabric's
// call word; the pair is everything the handler needs to find its bytes.
func packData(slot, n int) uint64 { return uint64(slot)<<32 | uint64(uint32(n)) }

func unpackData(d uint64) (slot, n int) { return int(d >> 32), int(uint32(d)) }

// serve is the enclave-side handler: decode the request in place from
// the submitting connection's slot buffer, execute it against the store,
// and encode the response into the paired response buffer.  The returned
// word is the response length (or the ^0 sentinel on a malformed
// packet, mirroring the corrupted-call_ID convention).
func (s *PoolServer) serve(requester int, data uint64) uint64 {
	slot, n := unpackData(data)
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
	if s.epcMgr != nil {
		// The footprint is the value a GET returned or a SET stored.
		s.touchEPC(requester, req.key, len(resp.Value)+len(req.value))
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
