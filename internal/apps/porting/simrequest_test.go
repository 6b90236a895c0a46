package porting_test

import (
	"runtime"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

// simCell boots one simulated app in the given mode and returns a function
// serving one request end to end (inject, serve on clk, drain), the unit
// porting.RunClosedLoop drives for Figures 10 and 11.
func simCell(tb testing.TB, app string, mode porting.Mode) func(clk *sim.Clock) {
	tb.Helper()
	switch app {
	case "memcached":
		s := memcached.NewServer(mode)
		w := memcached.NewWorkload(s, 77)
		return func(clk *sim.Clock) {
			w.InjectNext()
			s.ServeOne(clk)
			if _, err := w.DrainResponse(); err != nil {
				tb.Fatal(err)
			}
		}
	case "lighttpd":
		s := lighttpd.NewServer(mode)
		return func(clk *sim.Clock) {
			client := s.InjectRequest("/")
			s.ServeOne(clk)
			for {
				if _, ok := s.App.Kernel.TakeRX(client); !ok {
					break
				}
			}
		}
	case "openvpn":
		s := openvpn.NewServer(mode)
		var ck [16]byte
		var mk [32]byte
		copy(ck[:], "tunnel-cipher-k!")
		copy(mk[:], "tunnel-hmac-key-tunnel-hmac-key-")
		seal := openvpn.NewCipher(ck, mk)
		payload := make([]byte, openvpn.IperfPayload)
		return func(clk *sim.Clock) {
			s.ServePacket(clk, seal, payload, false)
			if s.Dropped() != 0 {
				tb.Fatal("openvpn dropped a frame")
			}
		}
	}
	tb.Fatalf("unknown simulated app %q", app)
	return nil
}

var simCells = []struct {
	app  string
	mode porting.Mode
}{
	{"memcached", porting.SGX}, {"memcached", porting.HotCalls},
	{"lighttpd", porting.SGX}, {"lighttpd", porting.HotCalls},
	{"openvpn", porting.SGX}, {"openvpn", porting.HotCalls},
}

// BenchmarkSimRequest prices one simulated request in host time and
// allocations, per app and interface: the cost every experiment, the
// fidelity report and the repo benchmark's sim_apps workload pay per
// request (`make bench-sim`).
func BenchmarkSimRequest(b *testing.B) {
	for _, c := range simCells {
		b.Run(c.app+"/"+c.mode.String(), func(b *testing.B) {
			serve := simCell(b, c.app, c.mode)
			var clk sim.Clock
			for i := 0; i < 256; i++ { // past the cold misses and lazy growth
				serve(&clk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(&clk)
			}
		})
	}
}

// simOutstanding is each app's closed-loop window in the Figure 10 run.
var simOutstanding = map[string]int{"memcached": memcached.Outstanding, "lighttpd": lighttpd.Outstanding, "openvpn": 64}

// BenchmarkSimSweep is the unit of the repo benchmark's sim_apps workload
// inside the root module: the six cells, each on a freshly booted server,
// 0.05 simulated seconds through RunClosedLoop.  It reports simulated
// requests per host second, boots included, and allocations per request.
func BenchmarkSimSweep(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var requests uint64
	for i := 0; i < b.N; i++ {
		for _, c := range simCells {
			requests += porting.RunClosedLoop(simOutstanding[c.app], sim.Cycles(0.05), simCell(b, c.app, c.mode)).Requests
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(requests)/b.Elapsed().Seconds(), "simreq/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(requests), "allocs/simreq")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(requests), "B/simreq")
}
