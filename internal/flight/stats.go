package flight

import (
	"fmt"

	"hotcalls/internal/telemetry"
)

// csState is one callsite's accumulated statistics, fed by Digest.
// The histograms live in the recorder's private telemetry registry so
// they inherit the lock-free log2-bucket implementation.
type csState struct {
	lastTraceID uint64
	cutoffEWMA  float64 // tail sampler's smoothed outlier cutoff, ns
	tailQuiet   int     // consecutive outlier-free digests while escalated

	service *telemetry.Histogram // exec end - exec start, ns
	latency *telemetry.Histogram // return - submit, ns
}

func (r *Recorder) state(site int) *csState {
	for len(r.stats) <= site {
		r.stats = append(r.stats, nil)
	}
	st := r.stats[site]
	if st == nil {
		st = &csState{
			service: r.reg.Histogram(fmt.Sprintf("flight_cs%d_service_ns", site)),
			latency: r.reg.Histogram(fmt.Sprintf("flight_cs%d_latency_ns", site)),
		}
		r.stats[site] = st
	}
	return st
}

// Digest folds all newly-closed records into the per-callsite stats
// table and refreshes the tail sampler's cutoffs.  It is the recorder's
// only mutating reader: serialised by the recorder mutex, driven by the
// monitor tick, Stats, or tests.  A ring whose oldest undigested record
// is still open stops there (per-requester completion is near-FIFO, so
// the next Digest picks it up); records overwritten before Digest
// reached them are skipped.
func (r *Recorder) Digest() {
	if r == nil {
		return
	}
	b := r.bind.Load()
	if b == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for i, rg := range b.rings {
		if i >= len(r.cursors) {
			break
		}
		cur := r.cursors[i]
		next := rg.next.Load()
		// Ring-capacity overrun: everything older than one ring's
		// worth is gone regardless of state.
		if span := uint64(len(rg.recs)); next-cur > span {
			cur = next - span
		}
		for cur < next {
			rec := &rg.recs[cur&rg.mask]
			s := rec.seq.Load()
			if s == 2*cur+1 {
				break // still open; resume here next Digest
			}
			if v, ok := rec.load(cur); ok {
				r.fold(v)
			}
			cur++
		}
		r.cursors[i] = cur
	}
	r.foldTail()
}

// fold accumulates one closed record into its callsite's statistics.
func (r *Recorder) fold(v RecordView) {
	st := r.state(v.Callsite)
	st.lastTraceID = v.TraceID
	if v.TimedOut || v.Stopped {
		return // no service/latency signal in a cut-off call
	}
	if v.ExecEndNS >= v.ExecStartNS && v.ExecStartNS != 0 {
		st.service.Observe(v.ExecEndNS - v.ExecStartNS)
	}
	if v.ReturnNS >= v.SubmitNS && v.SubmitNS != 0 {
		st.latency.Observe(v.ReturnNS - v.SubmitNS)
	}
}

// siteArrivals sums the published arrival count per callsite across
// every shard lane of the binding.  Each lane's published count is exact
// at sample boundaries and otherwise lags the producer-private truth by
// at most SampleEvery-1 calls.  Nil before Bind.
func (b *binding) siteArrivals() []uint64 {
	if b == nil {
		return nil
	}
	out := make([]uint64, b.stride)
	for i := range b.lanes {
		out[i%b.stride] += b.lanes[i].published.Load()
	}
	return out
}

// CallsiteStats is one callsite's live statistics — the stats-table
// row incident bundles freeze.
// Timeouts and Fallbacks are exact; Arrivals is counted on every call
// but published at sample boundaries, so it is exact when the lane
// pauses on a SampleEvery multiple and otherwise lags by at most
// SampleEvery-1 (see the package comment).  Distribution fields come
// from the 1-in-SampleEvery timeline samples.
type CallsiteStats struct {
	ID   int    `json:"id"`
	Name string `json:"name"`

	Arrivals  uint64 `json:"arrivals"`  // exact at sample boundaries
	Timeouts  uint64 `json:"timeouts"`  // exact
	Fallbacks uint64 `json:"fallbacks"` // exact

	// Tail-sampler fields.  Outliers is the exact count of retained
	// outlier captures; CutoffNS is the current adaptive latency cutoff
	// (0 until the first digest sets one); Escalated reports
	// sample-every-call mode.
	Outliers  uint64 `json:"outliers,omitempty"`
	CutoffNS  uint64 `json:"cutoff_ns,omitempty"`
	Escalated bool   `json:"escalated,omitempty"`

	ServiceP50NS uint64 `json:"service_p50_ns"`
	ServiceP99NS uint64 `json:"service_p99_ns"`
	LatencyP50NS uint64 `json:"latency_p50_ns"`
	LatencyP99NS uint64 `json:"latency_p99_ns"`

	// LastTraceID is the most recent sampled call's trace ID, resolvable
	// against Records.
	LastTraceID uint64 `json:"last_trace_id"`
}

// Stats digests any pending records and returns the per-callsite
// stats table, ordered by callsite ID.  Callsites that have never been
// called are omitted.
func (r *Recorder) Stats() []CallsiteStats {
	if r == nil {
		return nil
	}
	r.Digest()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bind.Load()
	arrivals := b.siteArrivals()
	var out []CallsiteStats
	for site := 0; site < len(r.names); site++ {
		cs := CallsiteStats{
			ID:        site,
			Name:      r.names[site],
			Timeouts:  r.timeouts[site].n.Load(),
			Fallbacks: r.fallbacks[site].n.Load(),
			Outliers:  r.outlierSeen[site].n.Load(),
			Escalated: r.escalated[site].Load() != 0,
		}
		if b != nil {
			cs.Arrivals = arrivals[site]
			if c := b.cutoffs[site].Load(); c != noCutoff {
				cs.CutoffNS = c
			}
		}
		if cs.Arrivals == 0 && cs.Timeouts == 0 && cs.Fallbacks == 0 {
			continue
		}
		if site < len(r.stats) && r.stats[site] != nil {
			st := r.stats[site]
			svc := st.service.Snapshot()
			lat := st.latency.Snapshot()
			cs.ServiceP50NS = svc.Quantile(0.50)
			cs.ServiceP99NS = svc.Quantile(0.99)
			cs.LatencyP50NS = lat.Quantile(0.50)
			cs.LatencyP99NS = lat.Quantile(0.99)
			cs.LastTraceID = st.lastTraceID
		}
		out = append(out, cs)
	}
	return out
}
