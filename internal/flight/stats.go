package flight

import (
	"fmt"

	"hotcalls/internal/telemetry"
)

// csState is one callsite's accumulated statistics, fed by Digest.
// The histograms live in the recorder's private telemetry registry so
// they inherit the lock-free log2-bucket implementation and exemplar
// support.
type csState struct {
	sampled      uint64
	lastSubmitNS uint64
	lastTraceID  uint64
	prevArrivals uint64 // arrivals at last rate fold
	ewmaRate     float64
	ewmaValid    bool
	wastedSpin   float64 // attributed wasted responder polls
	cutoffEWMA   float64 // tail sampler's smoothed outlier cutoff, ns
	tailQuiet    int     // consecutive outlier-free digests while escalated

	service  *telemetry.Histogram // exec end - exec start, ns
	latency  *telemetry.Histogram // return - submit, ns
	interArr *telemetry.Histogram // gap between consecutive sampled submits, ns
}

func (r *Recorder) state(site int) *csState {
	for len(r.stats) <= site {
		r.stats = append(r.stats, nil)
	}
	st := r.stats[site]
	if st == nil {
		st = &csState{
			service:  r.reg.Histogram(fmt.Sprintf("flight_cs%d_service_ns", site)).EnableExemplars(),
			latency:  r.reg.Histogram(fmt.Sprintf("flight_cs%d_latency_ns", site)).EnableExemplars(),
			interArr: r.reg.Histogram(fmt.Sprintf("flight_cs%d_interarrival_ns", site)),
		}
		r.stats[site] = st
	}
	return st
}

// Digest folds all newly-closed records into the per-callsite stats
// table and advances the EWMA arrival rates and wasted-spin
// attribution.  It is the recorder's only mutating reader: serialised
// by the recorder mutex, driven by the monitor tick, the /debug/flight
// handler, or tests.  A ring whose oldest undigested record is still
// open stops there (per-requester completion is near-FIFO, so the next
// Digest picks it up); records overwritten before Digest reached them
// count as dropped.
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
			r.droppedstale += next - span - cur
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
				r.digestedCount++
			} else {
				r.droppedstale++ // reused mid-read or already overwritten
			}
			cur++
		}
		r.cursors[i] = cur
	}
	r.foldRates()
	r.foldTail()
}

// fold accumulates one closed record into its callsite's statistics.
func (r *Recorder) fold(v RecordView) {
	st := r.state(v.Callsite)
	st.sampled++
	st.lastTraceID = v.TraceID
	if st.lastSubmitNS != 0 && v.SubmitNS > st.lastSubmitNS {
		// Sampled inter-arrival gap: with SampleEvery > 1 this is the
		// gap between sampled calls, a stable order-of-magnitude proxy
		// for burstiness rather than the exact inter-arrival law.
		st.interArr.Observe(v.SubmitNS - st.lastSubmitNS)
	}
	if v.SubmitNS != 0 {
		st.lastSubmitNS = v.SubmitNS
	}
	if v.TimedOut || v.Stopped {
		return // no service/latency signal in a cut-off call
	}
	if v.ExecEndNS >= v.ExecStartNS && v.ExecStartNS != 0 {
		st.service.ObserveExemplar(v.ExecEndNS-v.ExecStartNS, v.TraceID)
	}
	if v.ReturnNS >= v.SubmitNS && v.SubmitNS != 0 {
		st.latency.ObserveExemplar(v.ReturnNS-v.SubmitNS, v.TraceID)
	}
}

// foldRates advances every callsite's EWMA arrival rate from the exact
// lane counts and attributes the window's wasted responder spin
// (polls that found no work) across callsites by inverse arrival
// rate: a rare callsite that keeps a responder polling is charged more
// of the idle spin than a busy one that keeps it fed — the signal the
// callsite spin-waste rule reads.
func (r *Recorder) foldRates() {
	now := r.opts.Now()
	dtNS := now - r.lastDigestNS
	if r.lastDigestNS == 0 {
		// First digest: the window opened at New, not at some previous
		// fold.  Measuring it from the recorder's birth instead of
		// discarding it fixes the EWMA cold-start bias — the old
		// prime-and-return left every callsite at RateEWMA 0 until the
		// *second* digest, poisoning any rate consumer (the wasted-spin
		// attribution and the callsite rules) at startup.
		dtNS = now - r.startNS
	}
	if dtNS == 0 {
		// Same-instant re-digest (Stats immediately after Digest lands
		// on the same monotonic nanosecond): fold nothing and leave
		// prevArrivals untouched, so the window's arrivals still count
		// toward the next real fold instead of being silently absorbed.
		return
	}
	r.lastDigestNS = now
	dt := float64(dtNS) / 1e9

	arrivals := r.arrivalsLocked()
	alpha := ewmaAlpha
	type active struct {
		st *csState
		w  float64
	}
	var act []active
	var wSum float64
	for site, n := range arrivals {
		if n == 0 {
			continue
		}
		st := r.state(site)
		rate := float64(n-st.prevArrivals) / dt
		st.prevArrivals = n
		if !st.ewmaValid {
			st.ewmaRate = rate
			st.ewmaValid = true
		} else {
			st.ewmaRate = alpha*rate + (1-alpha)*st.ewmaRate
		}
		w := 1 / (st.ewmaRate + 1)
		act = append(act, active{st, w})
		wSum += w
	}

	if r.occSource == nil || wSum == 0 {
		return
	}
	polls, execs := r.occSource()
	dPolls := polls - r.prevPolls.Load()
	dExecs := execs - r.prevExecutes.Load()
	r.prevPolls.Store(polls)
	r.prevExecutes.Store(execs)
	if dPolls <= dExecs {
		return
	}
	wasted := float64(dPolls - dExecs)
	for _, a := range act {
		a.st.wastedSpin += wasted * a.w / wSum
	}
}

// arrivalsLocked sums the published per-callsite arrival counts across
// all shard lanes of the current binding, plus the baseline carried
// over from previously-bound fabrics.  Each lane's published count is
// exact at sample boundaries and otherwise lags the producer-private
// truth by at most SampleEvery-1.  Caller holds r.mu.
func (r *Recorder) arrivalsLocked() map[int]uint64 {
	out := make(map[int]uint64)
	for site, n := range r.baseArrivals {
		if n > 0 {
			out[site] = n
		}
	}
	b := r.bind.Load()
	if b == nil {
		if len(out) == 0 {
			return nil
		}
		return out
	}
	for shard := 0; shard < len(b.rings); shard++ {
		for site := 0; site < b.stride; site++ {
			if n := b.lanes[shard*b.stride+site].published.Load(); n > 0 {
				out[site] += n
			}
		}
	}
	return out
}

// bytesLocked is arrivalsLocked for published zero-copy payload-byte
// counts.  Caller holds r.mu.
func (r *Recorder) bytesLocked() map[int]uint64 {
	out := make(map[int]uint64)
	for site, n := range r.baseBytes {
		if n > 0 {
			out[site] = n
		}
	}
	b := r.bind.Load()
	if b == nil {
		if len(out) == 0 {
			return nil
		}
		return out
	}
	for shard := 0; shard < len(b.rings); shard++ {
		for site := 0; site < b.stride; site++ {
			if n := b.lanes[shard*b.stride+site].publishedBytes.Load(); n > 0 {
				out[site] += n
			}
		}
	}
	return out
}

// CallsiteStats is one callsite's live statistics — the stats-table
// row /debug/flight exports and the callsite rules read.
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
	Sampled   uint64 `json:"sampled"`

	// Bytes is the callsite's cumulative zero-copy payload byte count,
	// published like Arrivals (exact at sample boundaries).  Zero for
	// callsites that only move typed uint64 payloads.
	Bytes uint64 `json:"bytes,omitempty"`

	// Tail-sampler fields (zero unless ArmTailSampler was called).
	// Outliers is the exact count of retained outlier captures;
	// CutoffNS is the current adaptive latency cutoff (0 until the
	// first digest sets one); Escalated reports sample-every-call mode.
	Outliers  uint64 `json:"outliers,omitempty"`
	CutoffNS  uint64 `json:"cutoff_ns,omitempty"`
	Escalated bool   `json:"escalated,omitempty"`

	RateEWMA float64 `json:"rate_ewma_per_s"`

	ServiceP50NS  uint64 `json:"service_p50_ns"`
	ServiceP99NS  uint64 `json:"service_p99_ns"`
	LatencyP50NS  uint64 `json:"latency_p50_ns"`
	LatencyP99NS  uint64 `json:"latency_p99_ns"`
	InterArrP50NS uint64 `json:"interarrival_p50_ns"`

	// WastedSpin is this callsite's attributed share of responder
	// polls that found no work, accumulated across digest windows.
	WastedSpin float64 `json:"wasted_spin_polls"`

	// LastTraceID is the most recent sampled call's trace ID — an
	// exemplar handle resolvable against Records / /debug/flight.
	LastTraceID uint64 `json:"last_trace_id"`

	// ServiceExemplars links service-time histogram buckets to
	// concrete recent trace IDs (tail forensics).
	ServiceExemplars []telemetry.BucketExemplar `json:"service_exemplars,omitempty"`
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
	arrivals := r.arrivalsLocked()
	bytes := r.bytesLocked()
	var out []CallsiteStats
	for site := 0; site < len(r.names); site++ {
		n := arrivals[site]
		to := r.timeouts[site%len(r.timeouts)].n.Load()
		fb := r.fallbacks[site%len(r.fallbacks)].n.Load()
		if n == 0 && to == 0 && fb == 0 {
			continue
		}
		cs := CallsiteStats{
			ID:        site,
			Name:      r.names[site],
			Arrivals:  n,
			Timeouts:  to,
			Fallbacks: fb,
			Bytes:     bytes[site],
		}
		if r.armed.Load() && site < len(r.outlierSeen) {
			cs.Outliers = r.outlierSeen[site].n.Load()
			cs.Escalated = r.escalated[site].Load() != 0
			if b := r.bind.Load(); b != nil && site < len(b.cutoffs) {
				if c := b.cutoffs[site].Load(); c != noCutoff {
					cs.CutoffNS = c
				}
			}
		}
		if site < len(r.stats) && r.stats[site] != nil {
			st := r.stats[site]
			svc := st.service.Snapshot()
			lat := st.latency.Snapshot()
			ia := st.interArr.Snapshot()
			cs.Sampled = st.sampled
			cs.RateEWMA = st.ewmaRate
			cs.ServiceP50NS = svc.Quantile(0.50)
			cs.ServiceP99NS = svc.Quantile(0.99)
			cs.LatencyP50NS = lat.Quantile(0.50)
			cs.LatencyP99NS = lat.Quantile(0.99)
			cs.InterArrP50NS = ia.Quantile(0.50)
			cs.WastedSpin = st.wastedSpin
			cs.LastTraceID = st.lastTraceID
			cs.ServiceExemplars = svc.Exemplars
		}
		out = append(out, cs)
	}
	return out
}
