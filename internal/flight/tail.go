package flight

// Tail sampling: the 1-in-SampleEvery dice roll is the wrong tool for
// the calls that explain an incident — timeouts, fallbacks, and p99.9
// stragglers are by definition rare, so uniform sampling almost never
// catches one, and by the time a monitor rule fires the evidence has
// been overwritten by the main ring's churn.  When armed (see
// ArmTailSampler), the recorder adds three mechanisms:
//
//  1. Outlier retention.  Every timeout and every sampled call whose
//     latency exceeds the callsite's adaptive cutoff is copied into a
//     dedicated per-shard outlier ring, where it survives main-ring
//     wraparound until an incident bundle (internal/incident) or a
//     /debug/flight reader collects it.
//
//  2. Adaptive cutoffs.  Each digest folds the callsite's latency
//     quantile (TailOptions.Quantile) through an EWMA, multiplies by
//     TailOptions.Multiplier, clamps to MinCutoffNS, and publishes the
//     result to a binding-local cutoff slot.  The sampled return path
//     then decides "outlier?" with one plain load + compare — no math,
//     no locks.  Until the first digest the cutoff is noCutoff
//     (MaxUint64), so arming is safe before any traffic exists.
//
//  3. Escalation.  A callsite that times out, or accumulates
//     TailOptions.EscalateAfter latency outliers within one digest
//     window, has its per-lane sampling mask dropped to 0: every call
//     gets a full timeline record until TailOptions.QuietDigests
//     consecutive digests pass with no new outliers.  During an
//     incident the affected callsite is therefore captured completely,
//     while healthy callsites keep paying only the unsampled cost.
//
// The unsampled hot path is unchanged by arming: Arrive still executes
// one plain counter bump and one mask test (the mask moved from the
// recorder to the lane's own cache line, which Arrive already touches),
// and no LOCK-prefixed instruction is added to any per-call path — the
// escalation bookkeeping runs only on the outlier slow path.
//
// Caveat, stated honestly: a latency outlier can only be *observed* on
// a call that carries a record (sampled, or escalated to
// sample-every-call).  Checking the cutoff on unsampled calls would
// require two clock reads per call — far over the recorder's <<1%
// budget on a ~70ns fabric call.  Timeouts are always exact (the
// timeout path is inherently slow), and escalation converts "this
// callsite has stragglers" into complete capture within EscalateAfter
// sampled observations, so sustained tail trouble is fully recorded;
// only isolated stragglers on a healthy callsite can slip between
// samples.

// noCutoff disables the latency-outlier check for a callsite: no real
// latency compares above it.
const noCutoff = ^uint64(0)

// TailOptions tunes the tail sampler.  The zero value selects the
// defaults noted on each field.
type TailOptions struct {
	// Quantile of the callsite's latency distribution the cutoff
	// tracks (default 0.99).
	Quantile float64

	// Multiplier scales the tracked quantile into the cutoff (default
	// 8): a call is an outlier when it runs Multiplier times the p99.
	Multiplier float64

	// MinCutoffNS floors the cutoff (default 1ms) so scheduler jitter
	// on nanosecond-scale calls never reads as an incident.
	MinCutoffNS uint64

	// EscalateAfter is how many latency outliers within one digest
	// window escalate the callsite to sample-every-call (default 2).
	// Timeouts escalate immediately regardless.
	EscalateAfter int

	// QuietDigests is how many consecutive outlier-free digests
	// de-escalate the callsite back to 1-in-SampleEvery (default 2).
	QuietDigests int

	// OutlierRingRecords is the per-shard outlier-ring capacity
	// (default 64, rounded up to a power of two).  Fixed at Bind time:
	// arm before binding to change it.
	OutlierRingRecords int
}

func (t *TailOptions) fill() {
	if t.Quantile <= 0 || t.Quantile >= 1 {
		t.Quantile = 0.99
	}
	if t.Multiplier <= 0 {
		t.Multiplier = 8
	}
	if t.MinCutoffNS == 0 {
		t.MinCutoffNS = 1_000_000 // 1ms
	}
	if t.EscalateAfter <= 0 {
		t.EscalateAfter = 2
	}
	if t.QuietDigests <= 0 {
		t.QuietDigests = 2
	}
	if t.OutlierRingRecords <= 0 {
		t.OutlierRingRecords = 64
	}
	t.OutlierRingRecords = ceilPow2(t.OutlierRingRecords)
}

// ArmTailSampler arms outlier retention, adaptive cutoffs, and
// escalation with the given thresholds (zero fields take defaults).
// Arm once, before traffic: the options are published through the
// armed flag, so the capture path never reads a half-written update,
// but re-arming while calls are in flight is not synchronised.
// Arming before Bind also lets OutlierRingRecords size the rings.
func (r *Recorder) ArmTailSampler(t TailOptions) {
	if r == nil {
		return
	}
	t.fill()
	r.mu.Lock()
	r.tail = t
	r.mu.Unlock()
	r.armed.Store(true)
}

// DisarmTailSampler stops outlier capture and de-escalates every
// callsite back to uniform sampling.  Already-captured outlier records
// stay readable until the next Bind.
func (r *Recorder) DisarmTailSampler() {
	if r == nil {
		return
	}
	r.armed.Store(false)
	for site := range r.escalated {
		if r.escalated[site].Load() != 0 {
			r.deescalate(site)
		}
	}
	if b := r.bind.Load(); b != nil {
		for i := range b.cutoffs {
			b.cutoffs[i].Store(noCutoff)
		}
	}
}

// TailArmed reports whether the tail sampler is armed.
func (r *Recorder) TailArmed() bool { return r != nil && r.armed.Load() }

// Complete stamps the requester's wait-return time, closes the record,
// and — when the tail sampler is armed — runs the outlier check: one
// plain load of the callsite's binding-local cutoff and a compare.
// Over-cutoff calls are copied to the shard's outlier ring and counted
// toward escalation.  Nil-safe on the record (the unsampled common
// case), so callers replace fr.Return(now) with flight.Complete(fr)
// unconditionally.  Must run on the shard's producer goroutine, like
// every other record-path method.
func (r *Recorder) Complete(fr *Record) {
	if fr == nil {
		return
	}
	now := r.opts.Now()
	fr.ret.Store(now)
	fr.seq.Add(1)
	if !r.armed.Load() {
		return
	}
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
// after EscalateAfter captures since the last digest reading.
func (r *Recorder) noteOutlier(site int, immediate bool) {
	if site >= len(r.outlierSeen) {
		return
	}
	seen := r.outlierSeen[site].n.Add(1)
	if r.escalated[site].Load() != 0 {
		return
	}
	if immediate || seen-r.seenAtDigest[site].Load() >= uint64(r.tail.EscalateAfter) {
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
// outlier-free for QuietDigests consecutive digests.
func (r *Recorder) foldTail() {
	if !r.armed.Load() {
		return
	}
	b := r.bind.Load()
	for site := 0; site < len(r.names) && site < len(r.seenAtDigest); site++ {
		seen := r.outlierSeen[site].n.Load()
		prev := r.seenAtDigest[site].Load()
		r.seenAtDigest[site].Store(seen)

		if site < len(r.stats) && r.stats[site] != nil {
			st := r.stats[site]
			if q := st.latency.Snapshot().Quantile(r.tail.Quantile); q > 0 {
				target := float64(q) * r.tail.Multiplier
				if st.cutoffEWMA == 0 {
					st.cutoffEWMA = target
				} else {
					a := r.opts.EWMAAlpha
					st.cutoffEWMA = a*target + (1-a)*st.cutoffEWMA
				}
				cut := uint64(st.cutoffEWMA)
				if cut < r.tail.MinCutoffNS {
					cut = r.tail.MinCutoffNS
				}
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
			} else if st.tailQuiet++; st.tailQuiet >= r.tail.QuietDigests {
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

// OutlierCount returns the exact number of outliers captured for the
// callsite since New (retention in the ring is bounded; this count is
// not).
func (r *Recorder) OutlierCount(site int) uint64 {
	if r == nil || site < 0 || site >= len(r.outlierSeen) {
		return 0
	}
	return r.outlierSeen[site].n.Load()
}
