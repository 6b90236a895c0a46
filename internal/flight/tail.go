package flight

// Tail sampling: the 1-in-SampleEvery dice roll is the wrong tool for
// the calls that explain an incident — timeouts, fallbacks, and p99.9
// stragglers are by definition rare, so uniform sampling almost never
// catches one, and by the time a monitor rule fires the evidence has
// been overwritten by the main ring's churn.  So every recorder runs
// three more mechanisms:
//
//  1. Outlier retention.  Every timeout and every sampled call whose
//     latency exceeds the callsite's adaptive cutoff is copied into a
//     dedicated per-shard outlier ring, where it survives main-ring
//     wraparound until an incident bundle (internal/incident) or an
//     Outliers reader collects it.
//
//  2. Adaptive cutoffs.  Each digest folds the callsite's latency
//     quantile (tailQuantile) through an EWMA, multiplies by
//     tailMultiplier, clamps to minCutoffNS, and publishes the result
//     to a binding-local cutoff slot.  The sampled return path
//     then decides "outlier?" with one plain load + compare — no math,
//     no locks.  Until the first digest the cutoff is noCutoff
//     (MaxUint64): nothing is an outlier before traffic has set one.
//
//  3. Escalation.  A callsite that times out, or accumulates
//     escalateAfter latency outliers within one digest window, has its
//     per-lane sampling mask dropped to 0: every call gets a full
//     timeline record until quietDigests consecutive digests pass with
//     no new outliers.  During an
//     incident the affected callsite is therefore captured completely,
//     while healthy callsites keep paying only the unsampled cost.
//
// The unsampled hot path pays nothing for this: Arrive executes one
// plain counter bump and one mask test (the mask lives on the lane's own
// cache line, which Arrive already touches), and no LOCK-prefixed
// instruction is on any per-call path — the escalation bookkeeping runs
// only on the outlier slow path.
//
// Caveat, stated honestly: a latency outlier can only be *observed* on
// a call that carries a record (sampled, or escalated to
// sample-every-call).  Checking the cutoff on unsampled calls would
// require two clock reads per call — far over the recorder's <<1%
// budget on a ~70ns fabric call.  Timeouts are always exact (the
// timeout path is inherently slow), and escalation converts "this
// callsite has stragglers" into complete capture within escalateAfter
// sampled observations, so sustained tail trouble is fully recorded;
// only isolated stragglers on a healthy callsite can slip between
// samples.

// noCutoff disables the latency-outlier check for a callsite: no real
// latency compares above it.
const noCutoff = ^uint64(0)

// The tail sampler's thresholds.  A call is a latency outlier when it
// runs tailMultiplier times its callsite's tailQuantile latency, smoothed
// across digests with weight cutoffAlpha on the newest, and never below
// minCutoffNS, so scheduler jitter on nanosecond-scale calls never reads
// as an incident.  escalateAfter latency outliers within one
// digest window escalate the callsite to sample-every-call (a timeout
// escalates at once); quietDigests consecutive outlier-free digests
// de-escalate it.  Each shard retains its last outlierRecords
// outliers.
const (
	tailQuantile   = 0.99
	tailMultiplier = 8
	cutoffAlpha    = 0.3
	minCutoffNS    = 1_000_000 // 1ms
	escalateAfter  = 2
	quietDigests   = 2
	outlierRecords = 64 // a power of two
)

// Complete stamps the requester's wait-return time, closes the record,
// and runs the tail sampler's outlier check: one plain load of the
// callsite's binding-local cutoff and a compare.  Over-cutoff calls are
// copied to the shard's outlier ring and counted toward escalation.
// Nil-safe on the record (the unsampled common case), so callers call it
// unconditionally.  Must run on the shard's producer goroutine, like
// every other record-path method.
func (r *Recorder) Complete(fr *Record) {
	if fr == nil {
		return
	}
	now := r.opts.Now()
	fr.ret.Store(now)
	fr.seq.Add(1)
	sub := fr.submit.Load()
	if sub == 0 || now < sub {
		return
	}
	b := r.bind.Load()
	if b == nil {
		return
	}
	meta := fr.meta.Load()
	site := int(meta>>48) & b.siteMask
	if now-sub < b.cutoffs[site].Load() {
		return
	}
	shard := int(meta >> 32 & 0xffff)
	r.captureOutlier(b, fr, shard)
	r.noteOutlier(site, false)
}

// captureOutlier copies a just-closed record into the shard's outlier
// ring.  The outlier ring uses the multi-producer openMP (CAS claim):
// the fabric gives each shard one producer, and the capture path does
// not depend on it.  The copy is a
// fresh closed generation in the outlier ring; readers use the same
// seqlock validation as the main ring.
func (r *Recorder) captureOutlier(b *binding, src *Record, shard int) {
	if uint(shard) >= uint(len(b.outliers)) {
		return
	}
	dst, gen := b.outliers[shard].openMP()
	dst.trace.Store(src.trace.Load())
	dst.meta.Store(src.meta.Load())
	dst.ctx.Store(src.ctx.Load())
	dst.submit.Store(src.submit.Load())
	dst.claim.Store(src.claim.Load())
	dst.execStart.Store(src.execStart.Load())
	dst.execEnd.Store(src.execEnd.Load())
	dst.ret.Store(src.ret.Load())
	dst.seq.Store(2*gen + 2) // close
}

// noteOutlier counts one captured outlier for the callsite and decides
// escalation with plain atomic loads — no lock on this path.  Timeouts
// (immediate=true) escalate unconditionally; latency outliers escalate
// after escalateAfter captures since the last digest reading.
func (r *Recorder) noteOutlier(site int, immediate bool) {
	if site >= len(r.outlierSeen) {
		return
	}
	seen := r.outlierSeen[site].n.Add(1)
	if r.escalated[site].Load() != 0 {
		return
	}
	if immediate || seen-r.seenAtDigest[site].Load() >= escalateAfter {
		r.escalate(site)
	}
}

// escalate drops the callsite's sampling mask to 0 on every shard lane
// of the current binding: each subsequent call gets a full timeline
// record until the digest de-escalates.
func (r *Recorder) escalate(site int) {
	if site >= len(r.escalated) || r.escalated[site].Swap(1) != 0 {
		return
	}
	b := r.bind.Load()
	if b == nil {
		return
	}
	for shard := 0; shard < len(b.rings); shard++ {
		b.lanes[shard*b.stride+site].mask.Store(0)
	}
}

// deescalate restores the callsite's lanes to uniform sampling.
func (r *Recorder) deescalate(site int) {
	if site >= len(r.escalated) {
		return
	}
	r.escalated[site].Store(0)
	b := r.bind.Load()
	if b == nil {
		return
	}
	for shard := 0; shard < len(b.rings); shard++ {
		b.lanes[shard*b.stride+site].mask.Store(r.sampleMask)
	}
}

// foldTail runs at the end of Digest (caller holds r.mu): refreshes
// every active callsite's binding-local cutoff from the EWMA-smoothed
// latency quantile, and de-escalates callsites that have been
// outlier-free for quietDigests consecutive digests.
func (r *Recorder) foldTail() {
	b := r.bind.Load()
	for site := 0; site < len(r.names) && site < len(r.seenAtDigest); site++ {
		seen := r.outlierSeen[site].n.Load()
		prev := r.seenAtDigest[site].Load()
		r.seenAtDigest[site].Store(seen)

		if site < len(r.stats) && r.stats[site] != nil {
			st := r.stats[site]
			if q := st.latency.Snapshot().Quantile(tailQuantile); q > 0 {
				target := float64(q) * tailMultiplier
				if st.cutoffEWMA == 0 {
					st.cutoffEWMA = target
				} else {
					st.cutoffEWMA = cutoffAlpha*target + (1-cutoffAlpha)*st.cutoffEWMA
				}
				cut := max(uint64(st.cutoffEWMA), minCutoffNS)
				if b != nil && site < len(b.cutoffs) {
					b.cutoffs[site].Store(cut)
				}
			}
		}
		if r.escalated[site].Load() != 0 {
			// state() rather than r.stats[site]: a callsite can escalate
			// on synthesized timeouts alone, with no digested sample yet.
			st := r.state(site)
			if seen != prev {
				st.tailQuiet = 0
			} else if st.tailQuiet++; st.tailQuiet >= quietDigests {
				st.tailQuiet = 0
				r.deescalate(site)
			}
		}
	}
}

// Outliers returns up to max of the most recent retained outlier
// records across all shards, oldest first by submit time.  Like
// Records, the walk is lock-free seqlock reading, safe concurrently
// with the hot path.
func (r *Recorder) Outliers(max int) []RecordView {
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
	for _, rg := range b.outliers {
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
