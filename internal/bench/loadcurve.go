package bench

import (
	"fmt"
	"strings"

	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

// runLoadCurve extends Figures 10/11 into full latency-throughput curves:
// the paper reports single operating points (200 outstanding memtier
// requests); sweeping the offered concurrency shows the whole saturation
// behaviour — a single-threaded server saturates at a fixed service rate,
// so latency grows linearly with outstanding requests (Little's law) while
// throughput stays pinned, and the HotCalls gap is the horizontal distance
// between the curves.
func runLoadCurve() *Report {
	r := &Report{ID: "loadcurve", Title: "memcached latency-throughput curves by interface (concurrency sweep)", CSV: map[string]string{}}
	tbl := &table{header: []string{"outstanding", "mode", "req/s", "avg latency (ms)", "p99 (ms)"}}
	var csv strings.Builder
	csv.WriteString("outstanding,mode,throughput,avg_ms,p99_ms\n")

	for _, outstanding := range []int{25, 50, 100, 200, 400} {
		for _, mode := range []porting.Mode{porting.SGX, porting.HotCallsNRZ} {
			s := memcached.NewServer(mode)
			w := memcached.NewWorkload(s, seedFor(313))
			m := porting.RunClosedLoop(outstanding, sim.Cycles(0.02), func(clk *sim.Clock) { w.Step(clk) })
			tbl.add(fmt.Sprint(outstanding), mode.String(),
				f0(m.Throughput), fmt.Sprintf("%.3f", m.AvgLatency*1e3), fmt.Sprintf("%.3f", m.P99Latency*1e3))
			fmt.Fprintf(&csv, "%d,%s,%.0f,%.4f,%.4f\n", outstanding, mode, m.Throughput, m.AvgLatency*1e3, m.P99Latency*1e3)
			r.Values = append(r.Values, Value{
				Name: fmt.Sprintf("%s@%d throughput", mode, outstanding),
				Got:  m.Throughput, Unit: "req/s",
			}, Value{
				Name: fmt.Sprintf("%s@%d latency", mode, outstanding),
				Got:  m.AvgLatency * 1e3, Unit: "ms",
			})
		}
	}
	r.Table = tbl.String()
	r.CSV["loadcurve.csv"] = csv.String()
	return r
}

func init() {
	register(Experiment{ID: "loadcurve", Title: "Latency-throughput curves (extension)", Run: runLoadCurve})
}
