package porting

import (
	"fmt"

	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/epcstat"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// FabricSpec is what differs between the ports' wiring.
type FabricSpec struct {
	// Callsites names the port's flight callsites, at most four — one
	// stats row per name.  Fabric.Callsite indexes the list.
	Callsites []string
	// SealKey keys the simulated EPC's eviction sealing (16 bytes).
	SealKey string
}

// Observers is what Arm attaches.  A zero field leaves that observer off;
// the zero Observers arms nothing.
type Observers struct {
	// Registry receives the fabric's counters and gauges, and the EPC
	// model's when that is armed too.
	Registry *telemetry.Registry
	// Flight records per-callsite arrival counts, sampled causal
	// timelines, outliers and payload byte volume, under the spec's
	// callsite names.
	Flight *flight.Recorder
	// EPCBytes arms a simulated EPC of that capacity (up to one page
	// selects epc.DefaultCapacityBytes) and its pressure observatory:
	// every served request then touches the pages the port derives for
	// it, owner-tagged by client connection, so /debug/epc and the EPC
	// monitor rules attribute paging per client.
	EPCBytes int
	// Monitor arms the health monitor over Registry with these options;
	// the recorder and EPC observatory above attach to it (its
	// /debug/flight and /debug/epc, the EPC rules) unless the options
	// name others.  The caller Starts or Ticks it.
	Monitor *monitor.Options
	// Incidents arms the capturer that freezes a postmortem bundle on
	// every warning/critical rule transition (arming a default monitor
	// if Monitor is nil); Registry is snapshotted into each bundle unless
	// the options name another.
	Incidents *incident.Options
}

// Fabric is the kit a fabric-routed port embeds: its CallPool and
// everything observing it.  What a port has to say is its protocol and its
// handler; the pool's lifecycle, the observers that can be attached, the
// order they attach in, the EPC paging model and the debug surface are the
// same for every port and live here, once.  A port builds it with
// NewFabric, arms it at most once, before Start, and reads what was armed
// back through the accessors.
type Fabric struct {
	spec  FabricSpec
	conns int
	pool  *core.CallPool

	sealed bool // Arm, Start and DebugMux each close the arming window

	reg     *telemetry.Registry
	sites   [4]flight.Callsite // inline: a request's lookup is one load; unlabelled until a recorder is armed
	epcMgr  *epc.Manager
	epcStat *epcstat.Collector
	mon     *monitor.Monitor
	cap     *incident.Capturer
}

// NewFabric builds the fabric for up to conns client connections, one
// shard each: opts tunes the CallPool, its Shards field is overridden.
func NewFabric(spec FabricSpec, conns int, table []core.PoolFunc, opts core.PoolOptions) Fabric {
	opts.Shards = conns
	return Fabric{
		spec:  spec,
		conns: conns,
		pool:  core.NewCallPool(table, opts),
	}
}

// Arm attaches the observers, in the one order that wires them to each
// other: the registry before the EPC model (whose counters it exports),
// the recorder and the EPC observatory before the monitor (whose rules and
// /debug endpoints exist only for collectors it was built with), the
// monitor before the capturer.  It is called at most once and before
// Start — the responders read what it writes — and panics otherwise.
func (f *Fabric) Arm(o Observers) {
	if f.sealed {
		panic("porting: Fabric.Arm after Start, DebugMux or an earlier Arm: observers attach once, before the responders run")
	}
	f.sealed = true
	// A nil registry or recorder is that layer's own "off".
	f.reg = o.Registry
	f.pool.SetTelemetry(o.Registry)
	f.pool.SetFlight(o.Flight)
	for i, name := range f.spec.Callsites {
		f.sites[i] = o.Flight.Callsite(name)
	}
	if o.EPCBytes > 0 {
		capacity := o.EPCBytes
		if capacity <= epc.PageSize {
			capacity = epc.DefaultCapacityBytes
		}
		var sealKey [16]byte
		copy(sealKey[:], f.spec.SealKey)
		f.epcMgr = epc.NewManager(capacity, sealKey)
		f.epcMgr.SetTelemetry(o.Registry)
		f.epcStat = epcstat.New(epcstat.Options{})
		f.epcStat.Attach(f.epcMgr)
		for i := 0; i < f.conns; i++ {
			f.epcStat.SetLabel(epc.OwnerID(i+1), fmt.Sprintf("conn%d", i))
		}
	}
	if o.Monitor != nil {
		f.monitor(*o.Monitor)
	}
	if o.Incidents != nil {
		f.incidents(*o.Incidents)
	}
}

// monitor returns the health monitor, building it from opts and whatever
// collectors are armed if there is none yet.
func (f *Fabric) monitor(opts monitor.Options) *monitor.Monitor {
	if f.mon == nil {
		if opts.Flight == nil {
			opts.Flight = f.pool.Flight()
		}
		if opts.EPC == nil {
			opts.EPC = f.epcStat
		}
		f.mon = monitor.New(f.reg, opts)
	}
	return f.mon
}

// incidents returns the capturer, building and attaching it (and a
// default monitor under it) if there is none yet.
func (f *Fabric) incidents(opts incident.Options) *incident.Capturer {
	if f.cap == nil {
		if opts.Registry == nil {
			opts.Registry = f.reg
		}
		f.cap = incident.New(f.monitor(monitor.Options{}), opts)
		f.cap.Attach()
	}
	return f.cap
}

// DebugMux serves the fabric's observability surface: /metrics, a
// /debug/ index listing every endpoint and its renderings,
// /debug/health, /debug/monitor, /debug/incidents, and — per armed
// collector — /debug/flight and /debug/epc.  If Arm named no monitor or
// capturer, defaults are armed here; either way the set of observers is
// final from this call on.
func (f *Fabric) DebugMux() *monitor.DebugMux {
	f.sealed = true
	mux := monitor.Mux(f.reg, f.monitor(monitor.Options{}))
	mux.HandleEntry("/debug/incidents", "frozen postmortem bundles (rule transitions)",
		incident.Handler(f.incidents(incident.Options{})))
	return mux
}

// Pool exposes the underlying CallPool (stats, responder counts).
func (f *Fabric) Pool() *core.CallPool { return f.pool }

// Callsite returns the flight handle of the spec's i-th callsite name.
func (f *Fabric) Callsite(i int) flight.Callsite { return f.sites[i] }

// EPCManager exposes the simulated EPC (nil unless armed).
func (f *Fabric) EPCManager() *epc.Manager { return f.epcMgr }

// EPC exposes the EPC pressure observatory (nil unless armed).
func (f *Fabric) EPC() *epcstat.Collector { return f.epcStat }

// Monitor exposes the health monitor (nil until Arm or DebugMux builds
// one).
func (f *Fabric) Monitor() *monitor.Monitor { return f.mon }

// Incidents exposes the incident capturer (nil until Arm or DebugMux
// builds one).
func (f *Fabric) Incidents() *incident.Capturer { return f.cap }

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
