package flight

import "sync/atomic"

// Record flags (low 16 bits of meta).
const (
	flagTimeout uint64 = 1 << iota
	flagStopped
)

// Record is one sampled call's timeline cell.  All fields are atomics
// guarded by a generation-encoded seqlock:
//
//	seq = 2*gen+1  while the record is open (being written)
//	seq = 2*gen+2  once closed (final for that generation)
//
// where gen is the ring's global allocation index for this slot.  A
// reader expecting generation g loads seq, rejects anything but
// 2*g+2, copies the fields, and re-checks seq — an unchanged seq
// proves the copy is neither torn nor a wrapped-around reuse, because
// reuse restamps seq with a strictly larger generation.  Writers never
// block and never retry.
//
// Field packing (writer side):
//
//	meta: callsite<<48 | shard<<32 | (responder+1)<<16 | flags
//	ctx:  depth<<32 | live<<24 | sleepers<<16 | callID
//
// The record is padded to two cache lines so neighbouring ring slots
// never false-share under the x86 line-pair prefetcher.
type Record struct {
	seq       atomic.Uint64
	trace     atomic.Uint64
	meta      atomic.Uint64
	ctx       atomic.Uint64
	submit    atomic.Uint64
	claim     atomic.Uint64
	execStart atomic.Uint64
	execEnd   atomic.Uint64
	ret       atomic.Uint64
	bytes     atomic.Uint64
	_         [2*cacheLine - 80]byte
}

// TraceID returns the record's trace ID (0 on nil), the value Chrome
// events carry.
func (rec *Record) TraceID() uint64 {
	if rec == nil {
		return 0
	}
	return rec.trace.Load()
}

// orU64 is atomic.Uint64.Or for the go1.22 language level the module
// pins: a CAS loop, so concurrent responder-identity and flag updates
// both survive.
func orU64(a *atomic.Uint64, bits uint64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// Context stamps the submit-time pool state — queue depth, live
// responders, sleeping responders — onto the record.  Split out of
// Begin so the (shared, possibly contended) pool gauges are only read
// for the 1-in-SampleEvery calls that actually carry a record.  Only
// the submitting requester writes ctx at this point, so a plain
// load-or-store pair suffices.  Nil-safe.
func (rec *Record) Context(depth, live, sleepers int) {
	if rec == nil {
		return
	}
	rec.ctx.Store(rec.ctx.Load() |
		uint64(uint16(depth))<<32 |
		uint64(uint8(live))<<24 |
		uint64(uint8(sleepers))<<16)
}

// SetBytes stamps the call's payload byte count (zero-copy segment
// total; 0 for plain uint64 calls).  Written by the submitting
// requester before the call is posted, like Context.  Nil-safe.
func (rec *Record) SetBytes(n uint64) {
	if rec == nil {
		return
	}
	rec.bytes.Store(n)
}

// InlineResponder is the responder identity Claim records for a call its
// own requester claimed and ran because the responders were parked; the
// Chrome export draws its execute span on the requester's row.
const InlineResponder = 0xfffe

// Claim stamps the responder's slot-claim time and identity.  Nil-safe.
func (rec *Record) Claim(responder int, now uint64) {
	if rec == nil {
		return
	}
	orU64(&rec.meta, uint64(responder+1)<<16)
	rec.claim.Store(now)
}

// ExecStart stamps the responder's handler-entry time.  Nil-safe.
func (rec *Record) ExecStart(now uint64) {
	if rec == nil {
		return
	}
	rec.execStart.Store(now)
}

// ExecEnd stamps the responder's handler-exit time.  Nil-safe.
func (rec *Record) ExecEnd(now uint64) {
	if rec == nil {
		return
	}
	rec.execEnd.Store(now)
}

// Return stamps the requester's wait-return time and closes the
// record.  Nil-safe.
func (rec *Record) Return(now uint64) {
	if rec == nil {
		return
	}
	rec.ret.Store(now)
	rec.seq.Add(1) // odd (open) -> even (closed); the publication store
}

// closeWith closes an abnormally-terminated record: flag it, stamp the
// end-of-life time, and publish.  Nil-safe so every error path can
// call it unconditionally.
func (rec *Record) closeWith(flag, now uint64) {
	if rec == nil {
		return
	}
	orU64(&rec.meta, flag)
	rec.ret.Store(now)
	rec.seq.Add(1)
}

// ring is one requester shard's record ring.  next counts total
// allocations (the generation sequence); only the owning requester
// writes it, but readers load it to find the live window, so it is
// atomic.  Padded so adjacent shards' rings never false-share.
type ring struct {
	recs []Record
	mask uint64
	_    [cacheLine - 32]byte
	next atomic.Uint64
	_    [cacheLine - 8]byte
}

func newRing(capacity int) *ring {
	return &ring{recs: make([]Record, capacity), mask: uint64(capacity - 1)}
}

// open claims the next ring slot for generation gen, restamps its
// seqlock as open, and clears the responder-written fields.  Only the
// shard's owning requester calls open, so next needs no CAS.
func (r *ring) open() (*Record, uint64) {
	gen := r.next.Load()
	rec := &r.recs[gen&r.mask]
	// The open store is first: a concurrent reader of the previous
	// generation sees the seq change and rejects its copy.
	rec.seq.Store(2*gen + 1)
	rec.claim.Store(0)
	rec.execStart.Store(0)
	rec.execEnd.Store(0)
	rec.ret.Store(0)
	rec.bytes.Store(0)
	r.next.Store(gen + 1)
	return rec, gen
}

// openMP is open for rings with more than one producer — the outlier
// ring, whose writers are whichever goroutine hits the capture slow
// path.  The CAS claims a generation exclusively; everything after is
// the claimed slot's private state, exactly as in open.  Slow path
// only: the per-call hot path never reaches a CAS.
func (r *ring) openMP() (*Record, uint64) {
	for {
		gen := r.next.Load()
		if r.next.CompareAndSwap(gen, gen+1) {
			rec := &r.recs[gen&r.mask]
			rec.seq.Store(2*gen + 1)
			rec.claim.Store(0)
			rec.execStart.Store(0)
			rec.execEnd.Store(0)
			rec.ret.Store(0)
			rec.bytes.Store(0)
			return rec, gen
		}
	}
}

// RecordView is a validated copy of one closed record, decoded for
// export.  ClaimNS/ExecStartNS/ExecEndNS are zero for calls that never
// reached the responder (timeout, stop).
type RecordView struct {
	TraceID  uint64 `json:"trace_id"`
	Callsite int    `json:"callsite"`
	Name     string `json:"name"`
	Shard    int    `json:"shard"`
	// Responder is the executing responder index, InlineResponder when
	// the requester ran the call itself, or -1 when the call never got
	// claimed.
	Responder int  `json:"responder"`
	CallID    int  `json:"call_id"`
	Depth     int  `json:"depth"`
	Live      int  `json:"live_responders"`
	Sleepers  int  `json:"sleeping_responders"`
	TimedOut  bool `json:"timed_out,omitempty"`
	Stopped   bool `json:"stopped,omitempty"`

	SubmitNS    uint64 `json:"submit_ns"`
	ClaimNS     uint64 `json:"claim_ns,omitempty"`
	ExecStartNS uint64 `json:"exec_start_ns,omitempty"`
	ExecEndNS   uint64 `json:"exec_end_ns,omitempty"`
	ReturnNS    uint64 `json:"return_ns"`

	// Bytes is the call's zero-copy payload total (0 for plain calls).
	Bytes uint64 `json:"bytes,omitempty"`
}

// load copies the record, accepting only a closed generation-gen
// snapshot.  The double seq check rejects torn reads and wraparound
// reuse (see Record).
func (rec *Record) load(gen uint64) (RecordView, bool) {
	want := 2*gen + 2
	if rec.seq.Load() != want {
		return RecordView{}, false
	}
	v := RecordView{
		TraceID:     rec.trace.Load(),
		SubmitNS:    rec.submit.Load(),
		ClaimNS:     rec.claim.Load(),
		ExecStartNS: rec.execStart.Load(),
		ExecEndNS:   rec.execEnd.Load(),
		ReturnNS:    rec.ret.Load(),
		Bytes:       rec.bytes.Load(),
	}
	meta := rec.meta.Load()
	ctx := rec.ctx.Load()
	if rec.seq.Load() != want {
		return RecordView{}, false
	}
	v.Callsite = int(meta >> 48)
	v.Shard = int(meta >> 32 & 0xffff)
	v.Responder = int(meta>>16&0xffff) - 1
	v.TimedOut = meta&flagTimeout != 0
	v.Stopped = meta&flagStopped != 0
	v.Depth = int(ctx >> 32 & 0xffff)
	v.Live = int(ctx >> 24 & 0xff)
	v.Sleepers = int(ctx >> 16 & 0xff)
	v.CallID = int(ctx & 0xffff)
	return v, true
}

// Records returns up to max of the most recent closed records across
// all shards, oldest first by submit time.  The walk is lock-free
// seqlock reading: open, torn, and overwritten slots are simply
// skipped, so Records is safe to call at any time from any goroutine,
// including concurrently with the hot path.
func (r *Recorder) Records(max int) []RecordView {
	if r == nil {
		return nil
	}
	b := r.bind.Load()
	if b == nil {
		return nil
	}
	if max <= 0 {
		max = 64
	}
	var out []RecordView
	for _, rg := range b.rings {
		next := rg.next.Load()
		span := uint64(len(rg.recs))
		if next < span {
			span = next
		}
		for gen := next - span; gen < next; gen++ {
			if v, ok := rg.recs[gen&rg.mask].load(gen); ok {
				v.Name = r.CallsiteName(v.Callsite)
				out = append(out, v)
			}
		}
	}
	sortViews(out)
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// sortViews orders views by submit time (insertion sort: windows are
// small and mostly sorted already, shard by shard).
func sortViews(v []RecordView) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].SubmitNS < v[j-1].SubmitNS; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
