package main

import (
	"fmt"
	"math"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, and BENCHMARK.json gives each a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p75_us", "us", "lower"},
	{"goodput_mbit_s", "Mbit/s", "higher"},
	{"within_slo_share", "share", "higher"},
	{"cpu_cores", "cores", "lower"},
	{"ok_share", "share", "higher"},
}

// simProfileCategories are the simulated-cycle self-time categories of
// porting.Profile, plus the cycles no section claimed.
var simProfileCategories = []string{"edge-calls", "tlb-refills", "app-compute", "data-store", "crypto", "unattributed"}

// perLayer are the single-layer metrics of the traced pass.  A metric
// whose layer the workload bypasses reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.call_ns", "ns", "lower"},
		{"core.hotcall_ns", "ns", "lower"},
		{"core.submitv_ns_per_call", "ns", "lower"},
		{"core.submit_ns", "ns", "lower"},
		{"core.wait_ns", "ns", "lower"},
		{"core.polls_per_exec", "ratio", "lower"},
		{"core.sleeping_share", "share", "higher"},
		{"core.timeouts", "count", "lower"},
		{"memcached.encode_ns", "ns", "lower"},
		{"memcached.decode_ns", "ns", "lower"},
		{"memcached.residual_ns", "ns", "lower"},
		{"lighttpd.parse_ns", "ns", "lower"},
		{"lighttpd.residual_ns", "ns", "lower"},
		{"openvpn.seal_ns", "ns", "lower"},
		{"openvpn.open_ns", "ns", "lower"},
		{"openvpn.residual_ns_per_frame", "ns", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.bytes_per_op", "B", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
	}
	for _, id := range simCells {
		unit := "1/s"
		if id.app == "openvpn" {
			unit = "Mbit/s"
		}
		defs = append(defs, metricDef{id.metric(), unit, "higher"})
	}
	defs = append(defs,
		metricDef{"sim.hotcalls_speedup_x", "x", "higher"},
		metricDef{"sim.fidelity_err_max_pct", "%", "lower"},
		metricDef{"sdk.edge_calls_per_req", "count", "lower"})
	for _, c := range simProfileCategories {
		defs = append(defs, metricDef{"porting.cycles_per_req." + c, "cycles", "lower"})
	}
	for c := 0; c < len(simCells); c += 2 {
		defs = append(defs, metricDef{"sim.host_ns_per_req." + simCells[c].app, "ns", "lower"})
	}
	return append(defs,
		metricDef{"loadgen.self_ns", "ns", "lower"},
		metricDef{"loadgen.max_late_us", "us", "lower"},
		metricDef{"loadgen.p90_us", "us", "lower"},
		metricDef{"loadgen.pmax_us", "us", "lower"},
		metricDef{"loadgen.pmax_rank", "share", "higher"},
		metricDef{"loadgen.stall_share", "share", "lower"},
		metricDef{"loadgen.trace_overhead_share", "share", "lower"})
}()

// paperFig10 holds the paper's Figure 10 throughputs for the six cells
// (req/s; Mbit/s for openvpn), in simCells order.  The
// benchmark keeps its own copy so that a change to the program's tables
// cannot move the reference.
var paperFig10 = []float64{66500, 162000, 12100, 40400, 309, 694}

// value is one measured metric with the number of samples behind it.
type value struct {
	v       float64
	samples int
}

type values map[string]value

func (vs values) set(name string, v float64, samples int) { vs[name] = value{v, samples} }

// endToEndValues derives the end-to-end metrics of one untraced run.
// Apart from setup_s and ok_share, each is the median over the run's
// segments.
func endToEndValues(rec *recorder, setups []float64) values {
	pct := rec.segmentPercentiles(0.50, 0.75)
	segs, units := rec.edges-1, len(rec.lat)
	vs := values{}
	vs.set("setup_s", median(setups), len(setups))
	vs.set("ops_per_s", rec.opsPerSec(), segs)
	vs.set("p50_us", pct[0]/1e3, units)
	vs.set("p75_us", pct[1]/1e3, units)
	vs.set("goodput_mbit_s", rec.goodputMbit(), segs)
	vs.set("within_slo_share", rec.withinShare(), int(rec.attempted))
	vs.set("cpu_cores", rec.cpuCores(), segs)
	vs.set("ok_share", float64(rec.attempted-rec.failed)/float64(rec.attempted), int(rec.attempted))
	return vs
}

// perLayerValues derives the per-layer metrics of one traced pass: ref is
// the untraced reference run, traced the run that recorded spans, probes
// the single-layer timings, sims the reference and the profiled sweeps.
func perLayerValues(w *workload, ref, traced *recorder, spans []span, probes []probeResult, simRef, simProf *simGen) values {
	vs := values{}
	for _, d := range perLayer {
		vs.set(d.name, 0, 0)
	}
	pr := map[string]float64{}
	for _, p := range probes {
		vs.set(p.name, p.ns, p.samples)
		pr[p.name] = p.ns
	}

	self := selfTimes(spans)
	for kind, name := range map[uint8]string{spanSubmit: "core.submit_ns", spanWait: "core.wait_ns"} {
		if d := durationsOf(spans, nil, kind); len(d) > 0 {
			vs.set(name, percentile(d, 0.5), len(d))
		}
	}
	if d := durationsOf(spans, self, spanRequest); len(d) > 0 {
		vs.set("loadgen.self_ns", percentile(d, 0.5), len(d))
	}

	p50 := ref.segmentPercentiles(0.5)[0] // as the end-to-end p50_us is taken
	lat := ref.sortedLat()
	if ref.execs > 0 {
		vs.set("core.polls_per_exec", float64(ref.polls)/float64(ref.execs), int(ref.execs))
		vs.set("core.sleeping_share", float64(ref.sleepHits)/float64(ref.sleepSamples), int(ref.sleepSamples))
	}
	vs.set("core.timeouts", float64(ref.timeouts), int(ref.attempted))
	switch w.name {
	case "kv_sync", "kv_pipelined":
		// By construction call + encode + decode + residual = p50 of
		// one request (a window's p50 spread over its requests).
		per := p50 * float64(len(lat)) / float64(ref.attempted)
		vs.set("memcached.residual_ns", per-pr["core.call_ns"]-pr["memcached.encode_ns"]-pr["memcached.decode_ns"], len(lat))
	case "web_paced":
		vs.set("lighttpd.residual_ns", p50-pr["core.call_ns"]-pr["lighttpd.parse_ns"], len(lat))
	case "vpn_stream":
		vs.set("openvpn.residual_ns_per_frame",
			p50/windowSize-pr["openvpn.seal_ns"]-pr["openvpn.open_ns"]-pr["core.submitv_ns_per_call"], len(lat))
	}

	ops := float64(ref.attempted)
	vs.set("runtime.allocs_per_op", float64(ref.mallocs)/ops, int(ref.attempted))
	vs.set("runtime.bytes_per_op", float64(ref.heapB)/ops, int(ref.attempted))
	vs.set("runtime.gc_cycles", float64(ref.gcCycles), 1)

	vs.set("loadgen.max_late_us", float64(ref.maxLateNs)/1e3, len(lat))
	vs.set("loadgen.p90_us", percentile(lat, 0.9)/1e3, len(lat))
	pm, rank := pmax(lat)
	vs.set("loadgen.pmax_us", pm/1e3, len(lat))
	vs.set("loadgen.pmax_rank", rank, len(lat))
	vs.set("loadgen.stall_share", stallShare(lat), len(lat))
	if r := ref.opsPerSec(); r > 0 {
		vs.set("loadgen.trace_overhead_share", 1-traced.opsPerSec()/r, traced.edges-1)
	}

	if simRef != nil {
		simValues(vs, simRef, simProf)
	}
	return vs
}

// simValues adds the simulated platform's exact statistics.
func simValues(vs values, ref, prof *simGen) {
	speedup, fidelity := 1.0, 0.0
	var reqs, edge, cycles uint64
	for c, id := range simCells {
		cell := ref.cells[c]
		vs.set(id.metric(), cell.value, ref.sweeps)
		if id.hot {
			speedup *= cell.value / ref.cells[c-1].value
			vs.set("sim.host_ns_per_req."+id.app,
				float64(ref.hostNs[c-1]+ref.hostNs[c])/float64(ref.reqs[c-1]+ref.reqs[c]), ref.sweeps)
		}
		fidelity = max(fidelity, 100*math.Abs(cell.value-paperFig10[c])/paperFig10[c])
		reqs += cell.requests
		edge += cell.edgeCalls
		cycles += cell.cycles
	}
	vs.set("sim.hotcalls_speedup_x", math.Pow(speedup, 2/float64(len(simCells))), ref.sweeps)
	vs.set("sim.fidelity_err_max_pct", fidelity, ref.sweeps)
	vs.set("sdk.edge_calls_per_req", float64(edge)/float64(reqs), int(reqs))
	if prof == nil || len(prof.cells) == 0 {
		return
	}
	var attributed uint64
	for _, cat := range simProfileCategories[:len(simProfileCategories)-1] {
		var sum uint64
		for _, cell := range prof.cells {
			sum += cell.profile[cat]
		}
		attributed += sum
		vs.set("porting.cycles_per_req."+cat, float64(sum)/float64(reqs), int(reqs))
	}
	vs.set("porting.cycles_per_req.unattributed", (float64(cycles)-float64(attributed))/float64(reqs), int(reqs))
}

// printTable prints the metrics of defs with unit, sample count and, for
// end-to-end metrics, the regression bound.
func printTable(title string, defs []metricDef, vs values, bounds map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		v := vs[d.name]
		line := fmt.Sprintf("  %-40s %16.4f %-7s n=%-9d %s is better", d.name, v.v, d.unit, v.samples, d.better)
		if b, ok := bounds[d.name]; ok {
			line += fmt.Sprintf(", bound %.2f%%", 100*b)
		}
		fmt.Println(line)
	}
}
