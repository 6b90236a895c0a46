// Securekv: the paper's memcached scenario (Section 6.2).  A key-value
// cache is ported wholesale into an enclave so the database contents stay
// confidential, then driven with the memtier workload (binary protocol,
// 1:1 SET:GET, 2 KB values, 200 outstanding requests) under all four
// interface configurations.  The output is the memcached column of
// Figures 10 and 11.
package main

import (
	"fmt"

	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

func main() {
	// First, show the data path is real: store and fetch through the
	// enclave via the SGX interface.
	s := memcached.NewServer(porting.SGX)
	w := memcached.NewWorkload(s, 1)
	var clk sim.Clock
	for i := 0; i < 3; i++ {
		resp := w.Step(&clk)
		fmt.Printf("request %d: status=%d, %d value bytes, clock=%d cycles\n",
			i+1, resp.Status, len(resp.Value), clk.Now())
	}
	fmt.Printf("store now holds %d items\n\n", s.Store.Len())

	// Then the paper's comparison.
	fmt.Println("memcached under the four interface configurations:")
	fmt.Printf("%-14s %12s %10s %12s\n", "mode", "req/s", "latency", "vs native")
	var native float64
	for _, mode := range porting.Modes {
		m := memcached.Run(mode, 0.05)
		if mode == porting.Native {
			native = m.Throughput
		}
		fmt.Printf("%-14s %12.0f %8.2fms %11.0f%%\n",
			mode, m.Throughput, m.AvgLatency*1e3, m.Throughput/native*100)
	}
	fmt.Println("\npaper: 316,500 / 66,500 / 162,000 / 185,000 req/s")
}
