package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// offHeap returns room for n elements of a pointer-free type in memory
// the Go collector does not see, and a function that gives it back.  The
// program under test shares this process: were the benchmark's large
// buffers on the Go heap, they would raise the collector's trigger and
// the program would be measured with far fewer collections than it has
// on its own.
func offHeap[T any](n int) ([]T, func()) {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("hotpath: mmap of a measurement buffer: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), max(n, 1))[:0], func() { _ = syscall.Munmap(mem) }
}

// stepResult is what one generator step reports, in requests.
type stepResult struct {
	attempted, failed, timeouts uint32
	bytes                       uint32 // verified payload bytes
}

// unit is one generator step — a request, or a window of requests —
// issued against the program and verified.  i selects the inputs; with a
// non-nil tracer the step records its calls into the program as children
// of span root, on the clock that started at base.
type unit interface {
	step(i int, tr *tracer, root int32, base time.Time) stepResult
}

// segments is how many equal parts a measured run is cut into for the
// median-of-segments rates.
const segments = 20

// recorder holds one run's measurements; every slice is sized before the
// timed region.
type recorder struct {
	lat []uint32 // per unit, ns (per request when the workload says so)

	// Segment edges: edge k is the first unit completion at or after
	// k*segNs, with the totals up to and including that unit.  Cutting
	// at completions keeps a segment exact even when one unit (a
	// simulated sweep) is as long as a segment.  Every end-to-end metric
	// of the measured run is the median over these segments, so a burst
	// of host interference that spoils a few of them moves none.
	edgeNs        [segments + 1]int64
	edgeUnits     [segments + 1]int // len(lat) at the edge
	edgeOps       [segments + 1]uint64
	edgeBytes     [segments + 1]uint64
	edgeAttempted [segments + 1]uint64
	edgeWithin    [segments + 1]uint64
	edgeCPUus     [segments + 1]uint64 // process CPU microseconds
	edges         int                  // edges recorded so far, edge 0 being the start
	segNs         int64

	attempted, failed, timeouts, bytes, within uint64
	sleepSamples, sleepHits                    uint64
	maxLateNs                                  int64

	polls, execs   uint64 // fabric counter deltas
	mallocs, heapB uint64 // runtime.MemStats deltas
	gcCycles       uint32
	sorted         bool
	latPerOp       bool
	sloNs          int64

	free func() // returns lat's memory; the recorder is dead afterwards
}

func newRecorder(w *workload, d time.Duration) *recorder {
	lat, free := offHeap[uint32](int(d.Seconds()*float64(w.unitsPerSecCap)) + 1024)
	return &recorder{
		lat:      lat,
		free:     free,
		segNs:    max(int64(d)/segments, 1),
		edges:    1,
		latPerOp: w.latPerOp,
		sloNs:    int64(w.sloUs * 1e3),
	}
}

// note books one finished unit: latNs from its (intended) start, done at
// nowNs since the run began.
func (rec *recorder) note(r stepResult, latNs, nowNs int64) {
	if rec.latPerOp && r.attempted > 0 {
		latNs /= int64(r.attempted)
	}
	rec.lat = append(rec.lat, uint32(min(latNs, math.MaxUint32)))
	rec.attempted += uint64(r.attempted)
	rec.failed += uint64(r.failed)
	rec.timeouts += uint64(r.timeouts)
	rec.bytes += uint64(r.bytes)
	if latNs <= rec.sloNs {
		rec.within += uint64(r.attempted - r.failed)
	}
	if rec.edges <= segments && nowNs >= int64(rec.edges)*rec.segNs {
		cpu := processCPUus()
		for ; rec.edges <= segments && nowNs >= int64(rec.edges)*rec.segNs; rec.edges++ {
			k := rec.edges
			rec.edgeNs[k], rec.edgeUnits[k], rec.edgeCPUus[k] = nowNs, len(rec.lat), cpu
			rec.edgeOps[k], rec.edgeBytes[k] = rec.attempted-rec.failed, rec.bytes
			rec.edgeAttempted[k], rec.edgeWithin[k] = rec.attempted, rec.within
		}
	}
}

// sortedLat sorts the whole run's latencies; the per-segment percentiles
// must have been taken before, as they need completion order.
func (rec *recorder) sortedLat() []uint32 {
	if !rec.sorted {
		slices.Sort(rec.lat)
		rec.sorted = true
	}
	return rec.lat
}

// opsPerSec is the median over the run's segments of verified requests
// per second.
func (rec *recorder) opsPerSec() float64 {
	return medianSegmentRate(rec.edgeNs[:rec.edges], rec.edgeOps[:rec.edges])
}

// goodputMbit is the median over the run's segments of verified payload
// megabits per second.
func (rec *recorder) goodputMbit() float64 {
	return medianSegmentRate(rec.edgeNs[:rec.edges], rec.edgeBytes[:rec.edges]) * 8 / 1e6
}

// cpuCores is the median over the run's segments of process CPU-seconds
// per wall-second.
func (rec *recorder) cpuCores() float64 {
	return medianSegmentRate(rec.edgeNs[:rec.edges], rec.edgeCPUus[:rec.edges]) / 1e6
}

// withinShare is the median over the run's segments of the share of
// attempted requests answered correctly within the latency limit.
func (rec *recorder) withinShare() float64 {
	var shares []float64
	for k := 1; k < rec.edges; k++ {
		if n := rec.edgeAttempted[k] - rec.edgeAttempted[k-1]; n > 0 {
			shares = append(shares, float64(rec.edgeWithin[k]-rec.edgeWithin[k-1])/float64(n))
		}
	}
	return median(shares)
}

// segmentPercentiles returns, for each p, the median over the run's
// segments of that percentile of the segment's latencies, in ns.  It
// reorders lat inside each segment.
func (rec *recorder) segmentPercentiles(ps ...float64) []float64 {
	per := make([][]float64, len(ps))
	for k := 1; k < rec.edges; k++ {
		seg := rec.lat[rec.edgeUnits[k-1]:rec.edgeUnits[k]]
		if len(seg) == 0 {
			continue
		}
		slices.Sort(seg)
		for i, p := range ps {
			per[i] = append(per[i], percentile(seg, p))
		}
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = median(per[i])
	}
	return out
}

// run drives w's instance for d, closed-loop or on the arrival schedule
// drawn from seed, bracketed by the process-level counters.  first is the
// index of the first unit, so consecutive runs continue one input stream;
// the index after the last unit is returned.
func run(w *workload, in instance, seed uint64, first int, d time.Duration, tr *tracer) (*recorder, int) {
	rec := newRecorder(w, d)
	var sched []int64
	if w.rate > 0 {
		var free func()
		sched, free = poissonSchedule(seed+uint64(first), w.rate, d)
		defer free()
	}
	fab := in.fabric()
	sleeping := func() bool { return false }
	if fab != nil {
		sleeping = fab.sleeping
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var p0, e0 uint64
	if fab != nil {
		p0, e0 = fab.stats()
	}
	rec.edgeCPUus[0] = processCPUus()

	next := drive(in, first, int64(d), sched, sleeping, tr, rec)

	if fab != nil {
		p1, e1 := fab.stats()
		rec.polls, rec.execs = p1-p0, e1-e0
	}
	runtime.ReadMemStats(&m1)
	rec.mallocs, rec.heapB, rec.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return rec, next
}

// maxSpansPerUnit is the most spans one unit records: a root plus a
// submit and a wait per call of a window.
const maxSpansPerUnit = 1 + 2*16

// drive issues units until dNs has passed.  With a nil schedule the loop
// is closed: the next unit starts when the previous one has been
// verified, so its latency runs from that completion to its own.  With a
// schedule the loop is open: unit k is due at sched[k] whether or not
// earlier ones were slow and is timed from that intended start, so a
// stall is charged to every request it delays.
func drive(u unit, first int, dNs int64, sched []int64, sleeping func() bool, tr *tracer, rec *recorder) int {
	i := first
	root := int32(-1)
	base := time.Now()
	now := int64(0)
	for k := 0; len(rec.lat) < cap(rec.lat) && (tr == nil || tr.room(maxSpansPerUnit)); k++ {
		due := now
		if sched == nil {
			if now >= dNs {
				break
			}
		} else {
			if k == len(sched) {
				break
			}
			due = sched[k]
			for now < due {
				now = int64(time.Since(base))
			}
			rec.maxLateNs = max(rec.maxLateNs, now-due)
		}
		if tr != nil {
			root = tr.open(spanRequest, -1, uint32(i), due)
		}
		rec.sleepSamples++
		if sleeping() {
			rec.sleepHits++
		}
		r := u.step(i, tr, root, base)
		now = int64(time.Since(base))
		if tr != nil {
			tr.close(root, now)
		}
		rec.note(r, now-due, now)
		i++
	}
	return i
}

// poissonSchedule draws arrival instants (ns from the start) at the
// given mean rate until d, into off-heap memory the second result frees.
func poissonSchedule(seed uint64, rate float64, d time.Duration) ([]int64, func()) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	sched, free := offHeap[int64](int(rate*d.Seconds()*1.2) + 1024)
	t := 0.0
	for len(sched) < cap(sched) {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			break
		}
		sched = append(sched, int64(t))
	}
	return sched, free
}

// processCPUus returns the user+system CPU microseconds the process has
// used.
func processCPUus() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(t syscall.Timeval) uint64 { return uint64(t.Sec)*1e6 + uint64(t.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// seededBytes returns n bytes derived from seed.
func seededBytes(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}
