package porting

import (
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// Window is every fabric port's connection window: NewFabric sizes each
// connection's ring to it, so it bounds the requests a connection keeps in
// flight and the per-request buffer sets a port keeps, one per ring slot
// (core.Requester.Next).
const Window = 16

// Observers is what Arm attaches.  A zero field leaves that observer off;
// the zero Observers arms nothing.
type Observers struct {
	// Registry receives the fabric's counters.
	Registry *telemetry.Registry
	// Flight records sampled causal timelines and payload byte volume
	// under the port's callsite name.
	Flight *flight.Recorder
	// EPCBytes arms a simulated EPC of that capacity (up to one page
	// selects epc.DefaultCapacityBytes) and its pressure observatory:
	// every served request then touches the pages the port derives for
	// it, owner-tagged by client connection (owner i+1 for connection
	// i), so the observatory's snapshot attributes paging per client.
	EPCBytes int
}

// Fabric is the kit a fabric-routed port embeds: its CallPool and
// everything observing it.  What a port has to say is its protocol and its
// handler; the pool's lifecycle, the observers that can be attached, the
// order they attach in and the EPC paging model are the same for every
// port and live here, once.  A port builds it with
// NewFabric, arms it at most once, before Start, and reads what was armed
// back through the accessors.
type Fabric struct {
	callsite string
	pool     *core.CallPool

	sealed bool // Arm and Start each close the arming window

	site    flight.Callsite // unlabelled until a recorder is armed
	epcMgr  *epc.Manager
	epcStat *epcstat.Collector
}

// NewFabric builds the fabric for up to conns client connections, one
// shard of Window slots each: opts tunes the CallPool, its Shards and
// SlotsPerShard fields are overridden.  callsite names the port's one
// flight callsite: its sampled records carry this name.
func NewFabric(callsite string, conns int, table []core.PoolFunc, opts core.PoolOptions) Fabric {
	opts.Shards, opts.SlotsPerShard = conns, Window
	return Fabric{callsite: callsite, pool: core.NewCallPool(table, opts)}
}

// Arm attaches the observers.  It is called at most once and before
// Start — the responders read what it writes — and panics otherwise.
func (f *Fabric) Arm(o Observers) {
	if f.sealed {
		panic("porting: Fabric.Arm after Start or an earlier Arm: observers attach once, before the responders run")
	}
	f.sealed = true
	// A nil registry or recorder is that layer's own "off".
	f.pool.SetTelemetry(o.Registry)
	f.pool.SetFlight(o.Flight)
	f.site = o.Flight.Callsite(f.callsite)
	if o.EPCBytes > 0 {
		capacity := o.EPCBytes
		if capacity <= epc.PageSize {
			capacity = epc.DefaultCapacityBytes
		}
		f.epcMgr = epc.NewManager(capacity)
		f.epcStat = epcstat.New(epcstat.Options{})
		f.epcStat.Attach(f.epcMgr)
	}
}

// Pool exposes the underlying CallPool (stats, responder counts).
func (f *Fabric) Pool() *core.CallPool { return f.pool }

// Callsite returns the flight handle of the port's callsite name.
func (f *Fabric) Callsite() flight.Callsite { return f.site }

// EPCManager exposes the simulated EPC (nil unless armed).
func (f *Fabric) EPCManager() *epc.Manager { return f.epcMgr }

// EPC exposes the EPC pressure observatory (nil unless armed).
func (f *Fabric) EPC() *epcstat.Collector { return f.epcStat }

// Start launches the adaptive responder pool.
func (f *Fabric) Start() {
	f.sealed = true
	f.pool.Start()
}

// Stop shuts the fabric down.
func (f *Fabric) Stop() { f.pool.Stop() }

// enclavePageSpan sizes the modeled enclave heap in multiples of the EPC
// capacity: a port's data hashes across a region 16x the EPC, so
// residency pressure comes from how many distinct pages traffic actually
// touches, not from hash collisions.
const enclavePageSpan = 16

// TouchEPC charges the paging cost of one request: pages consecutive
// pages of the modeled heap from the one base folds to, owner-tagged by
// the submitting connection.  How a request maps to base and pages is the
// port's to say (a key's hash and its value's footprint, a document's
// path and size, a slab's position).  No-op unless the EPC model is armed.
func (f *Fabric) TouchEPC(requester int, base, pages uint64) {
	if f.epcMgr == nil {
		return
	}
	span := uint64(enclavePageSpan * f.epcMgr.CapacityPages())
	base %= span
	owner := epc.OwnerID(requester + 1)
	for p := uint64(0); p < pages; p++ {
		f.epcMgr.TouchAs(owner, (base+p)%span)
	}
}

// PackData packs two 32-bit halves into a fabric call word: a buffer-ring
// port's request (buffer slot, length), or lighttpd's response (image
// index, length).
func PackData(hi, n int) uint64 { return uint64(hi)<<32 | uint64(uint32(n)) }

// UnpackData splits a word PackData built.  A call word is the untrusted
// side's to write: the handler bounds-checks both halves against its own
// window and buffer before it uses either.
func UnpackData(d uint64) (hi, n uint64) { return d >> 32, d & (1<<32 - 1) }

// PagesOf is how many EPC pages n bytes span.
func PagesOf(n int) uint64 { return uint64(n+epc.PageSize-1) / epc.PageSize }

// FNV64 is FNV-1a over a key in either of its forms: the ports' lock
// striping and EPC page mapping share it.
func FNV64[K ~string | ~[]byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
