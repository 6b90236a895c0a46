package bench

import (
	"fmt"
	"sort"
	"strings"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

// appSimSeconds is the simulated duration of each application run.
const appSimSeconds = 0.05

// appResult is one application x mode data point.
type appResult struct {
	throughput float64 // requests/s or Mbit/s
	latency    float64 // seconds
}

// paper values for Figures 10 and 11.
var paperApps = map[string]map[porting.Mode]appResult{
	"memcached": {
		porting.Native:      {316500, 0.63e-3},
		porting.SGX:         {66500, 2.97e-3},
		porting.HotCalls:    {162000, 1.23e-3},
		porting.HotCallsNRZ: {185000, 1.08e-3},
	},
	"openvpn": {
		porting.Native:      {866, 1.427e-3},
		porting.SGX:         {309, 4.579e-3},
		porting.HotCalls:    {694, 1.873e-3},
		porting.HotCallsNRZ: {823, 1.747e-3},
	},
	"lighttpd": {
		porting.Native:      {53400, 1.52e-3},
		porting.SGX:         {12100, 8.25e-3},
		porting.HotCalls:    {40400, 2.40e-3},
		porting.HotCallsNRZ: {44800, 2.13e-3},
	},
}

func appUnit(app string) string {
	if app == "openvpn" {
		return "Mbit/s"
	}
	return "req/s"
}

// appRuns keeps every application x mode run, so Figures 10 and 11 read
// one set.  The apps' platforms and workloads carry fixed seeds, so a run
// does not depend on the base seed and one result serves every caller.
var appRuns = map[string]appResult{}

// runApp executes one application in one mode, once, and returns the two
// numbers the figures need.
func runApp(app string, mode porting.Mode) appResult {
	key := app + " " + mode.String()
	if res, ok := appRuns[key]; ok {
		return res
	}
	var res appResult
	switch app {
	case "memcached":
		m := memcached.Run(mode, appSimSeconds)
		res = appResult{m.Throughput, m.AvgLatency}
	case "openvpn":
		m := openvpn.RunIperf(mode, appSimSeconds)
		p := openvpn.RunPing(mode, appSimSeconds/2)
		res = appResult{m.BandwidthMbs, p.AvgLatency}
	case "lighttpd":
		m := lighttpd.Run(mode, appSimSeconds)
		res = appResult{m.Throughput, m.AvgLatency}
	default:
		panic("bench: unknown app " + app)
	}
	appRuns[key] = res
	return res
}

// requestLatency times every request of one application's HotCalls
// closed loop — the same run as its Figure 10 point, with each request's
// cycles kept.
func requestLatency(app string) *sim.Sample {
	var step func(*sim.Clock)
	var outstanding int
	switch app {
	case "memcached":
		w := memcached.NewWorkload(memcached.NewServer(porting.HotCalls), 77)
		step, outstanding = func(clk *sim.Clock) { w.Step(clk) }, memcached.Outstanding
	case "lighttpd":
		srv := lighttpd.NewServer(porting.HotCalls)
		step, outstanding = func(clk *sim.Clock) { srv.Fetch(clk, "/") }, lighttpd.Outstanding
	default:
		panic("bench: no request latency for app " + app)
	}
	s := new(sim.Sample)
	porting.RunClosedLoop(outstanding, sim.Cycles(appSimSeconds), func(clk *sim.Clock) {
		start := clk.Now()
		step(clk)
		s.AddCycles(clk.Since(start))
	})
	return s
}

var appOrder = []string{"memcached", "openvpn", "lighttpd"}

// runAppFigure produces Figure 10 (throughput, normalized to native) or
// Figure 11 (latency in milliseconds, plus the per-request HotCalls
// latency samples of memcached and lighttpd for REPORT.md).
func runAppFigure(id string, latency bool) *Report {
	title := "Figure 10: application throughput by interface (normalized to native)"
	if latency {
		title = "Figure 11: application latency by interface"
	}
	r := &Report{ID: id, Title: title}
	tbl := &table{header: []string{"app", "mode", "measured", "paper", "dev", "normalized"}}
	for _, app := range appOrder {
		var native float64
		for _, mode := range porting.Modes {
			res := runApp(app, mode)
			got, paper := res.throughput, paperApps[app][mode].throughput
			unit := appUnit(app)
			if latency {
				got, paper = res.latency*1e3, paperApps[app][mode].latency*1e3
				unit = "ms"
			}
			if mode == porting.Native {
				native = got
			}
			norm := got / native
			r.Values = append(r.Values, Value{
				Name: fmt.Sprintf("%s %s", app, mode), Got: got, Paper: paper, Unit: unit,
			})
			tbl.add(app, mode.String(),
				fmt.Sprintf("%.1f %s", got, unit),
				fmt.Sprintf("%.1f %s", paper, unit),
				pct(got, paper), f2(norm))
		}
	}
	r.Table = tbl.String()
	if latency {
		for _, app := range []string{"memcached", "lighttpd"} {
			r.Samples = append(r.Samples, NamedSample{app + "_hotcalls_request", requestLatency(app)})
		}
	}
	return r
}

// runTable2 regenerates Table 2: the most frequent API calls of each
// application running in the unoptimized SGX port, in thousands of calls
// per second, plus the core time spent facilitating them.
func runTable2() *Report {
	r := &Report{ID: "table2", Title: "Table 2: API call frequency in the unoptimized SGX ports"}
	tbl := &table{header: []string{"application", "call", "k calls/s", "paper k/s"}}

	// The paper's per-call rates at the SGX ports' throughputs.
	paperRates := map[string]map[string]float64{
		"memcached": {"read": 66.5, "sendmsg": 66.5, "RunEnclaveFucntion": 66.5},
		"openvpn":   {"poll": 87, "time": 87, "getpid": 13.6, "write": 30, "recvfrom": 30, "read": 13.6, "sendto": 13.6},
		"lighttpd":  {"read": 49, "fcntl": 25, "epoll_ctl": 25, "close": 25, "setsockopt": 25, "fxstat64": 25, "inet_ntop": 12, "accept": 12, "inet_addr": 12, "ioctl": 12, "open64_2": 12, "sendfile64": 12, "shutdown": 12, "writev": 12},
	}
	paperTotals := map[string]float64{"memcached": 200, "openvpn": 275, "lighttpd": 270}
	paperCoreTime := map[string]float64{"memcached": 42, "openvpn": 57, "lighttpd": 56}

	measure := func(app string) (counters map[string]uint64, seconds float64, ecallName string) {
		switch app {
		case "memcached":
			s := memcached.NewServer(porting.SGX)
			w := memcached.NewWorkload(s, seedFor(77))
			s.App.ResetCounters()
			m := porting.RunClosedLoop(memcached.Outstanding, sim.Cycles(appSimSeconds), func(clk *sim.Clock) { w.Step(clk) })
			return s.App.Counters(), m.SimSeconds, "ecall_run_enclave_function"
		case "openvpn":
			s := openvpn.NewServer(porting.SGX)
			seal := openvpn.SessionCipher()
			payload := make([]byte, openvpn.IperfPayload)
			s.App.ResetCounters()
			m := porting.RunClosedLoop(64, sim.Cycles(appSimSeconds), func(clk *sim.Clock) {
				s.ServePacket(clk, seal, payload, false)
			})
			return s.App.Counters(), m.SimSeconds, "ecall_process_event"
		default:
			s := lighttpd.NewServer(porting.SGX)
			s.App.ResetCounters()
			m := porting.RunClosedLoop(lighttpd.Outstanding, sim.Cycles(appSimSeconds), func(clk *sim.Clock) { s.Fetch(clk, "/") })
			return s.App.Counters(), m.SimSeconds, "ecall_handle_connection"
		}
	}

	for _, app := range appOrder {
		counters, seconds, ecallName := measure(app)
		var names []string
		var totalCalls uint64
		for name, count := range counters {
			if name == "ecall_main" {
				continue
			}
			names = append(names, name)
			totalCalls += count
		}
		// Equal-rate rows order by name: map iteration must not decide
		// the rendered table.
		sort.Slice(names, func(i, j int) bool {
			if ci, cj := counters[names[i]], counters[names[j]]; ci != cj {
				return ci > cj
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			rate := float64(counters[name]) / seconds / 1000
			short := strings.TrimPrefix(name, "ocall_")
			if name == ecallName {
				short = "RunEnclaveFucntion" // the paper's (sic) spelling
			}
			paper := paperRates[app][short]
			if paper == 0 && short == "open64" {
				paper = paperRates[app]["open64_2"]
			}
			if paper > 0 {
				r.Values = append(r.Values, Value{Name: app + " " + short, Got: rate, Paper: paper, Unit: "k calls/s"})
				tbl.add(app, short, f1(rate), f1(paper))
			} else {
				tbl.add(app, short, f1(rate), "-")
			}
		}
		totalRate := float64(totalCalls) / seconds / 1000
		// Core time: N_calls x 8,300 / 4 GHz, the paper's estimate.
		coreTime := totalRate * 1000 * 8300 / sim.FrequencyHz * 100
		r.Values = append(r.Values,
			Value{Name: app + " total calls", Got: totalRate, Paper: paperTotals[app], Unit: "k calls/s"},
			Value{Name: app + " core time", Got: coreTime, Paper: paperCoreTime[app], Unit: "%"},
		)
		tbl.add(app, "TOTAL", f1(totalRate), f1(paperTotals[app]))
		tbl.add(app, fmt.Sprintf("core time %.0f%%", coreTime), "", fmt.Sprintf("paper %v%%", paperCoreTime[app]))
	}
	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "table2", Run: runTable2})
	register(Experiment{ID: "fig10", Run: func() *Report {
		return runAppFigure("fig10", false)
	}})
	register(Experiment{ID: "fig11", Run: func() *Report {
		return runAppFigure("fig11", true)
	}})
}
