package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "fig10", "fig11", "ablation-calls", "ablation-cores", "breakdown", "epc", "incident", "loadcurve", "profile", "zerocopy"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if Get(id) == nil {
			t.Errorf("Get(%s) = nil", id)
		}
	}
	if Get("nope") != nil {
		t.Error("Get of unknown ID should be nil")
	}
}

// runOnce caches experiment runs so multiple assertions share one run.
var reportCache = map[string]*Report{}

func report(t *testing.T, id string) *Report {
	t.Helper()
	if r, ok := reportCache[id]; ok {
		return r
	}
	e := Get(id)
	if e == nil {
		t.Fatalf("experiment %s missing", id)
	}
	r := e.Run()
	reportCache[id] = r
	return r
}

func TestTable1AllRowsClose(t *testing.T) {
	r := report(t, "table1")
	if len(r.Values) != 18 {
		t.Fatalf("table1 has %d values, want 18", len(r.Values))
	}
	for _, v := range r.Values {
		if dev := math.Abs(v.Deviation()); dev > 0.10 {
			t.Errorf("%s: got %.0f, paper %.0f (%.1f%% off)", v.Name, v.Got, v.Paper, dev*100)
		}
	}
	if !strings.Contains(r.Table, "Ecall (warm cache)") {
		t.Error("rendered table missing rows")
	}
}

func TestFig2RangesRespected(t *testing.T) {
	r := report(t, "fig2")
	for _, v := range r.Values {
		// CDF endpoints within 10% of the paper's reported bands.
		if dev := math.Abs(v.Deviation()); dev > 0.10 {
			t.Errorf("%s: got %.0f, paper %.0f", v.Name, v.Got, v.Paper)
		}
	}
	if len(r.CSV) != 4 {
		t.Errorf("fig2 should emit 4 CDF series, got %d", len(r.CSV))
	}
}

func TestFig3Targets(t *testing.T) {
	r := report(t, "fig3")
	for _, v := range r.Values {
		switch v.Name {
		case "fraction below 620":
			if v.Got < 75 || v.Got > 90 {
				t.Errorf("P(<=620) = %.1f%%, want ~78%%", v.Got)
			}
		case "fraction below 1400":
			if v.Got < 99.5 {
				t.Errorf("P(<=1400) = %.2f%%, want ~99.97%%", v.Got)
			}
		case "hotcall median":
			if v.Got < 450 || v.Got > 620 {
				t.Errorf("median = %.0f, want at most 620", v.Got)
			}
		}
	}
}

func TestFig4Fig5Shapes(t *testing.T) {
	for _, id := range []string{"fig4", "fig5"} {
		r := report(t, id)
		// Values come in (in, out, inout) triples per size; out must be
		// the most expensive everywhere, and costs must grow with size.
		get := func(dir string, kb int) float64 {
			for _, v := range r.Values {
				if strings.Contains(v.Name, dir+" ") && strings.HasSuffix(v.Name, "KB") &&
					strings.Contains(v.Name, " "+itoa(kb)+"KB") {
					return v.Got
				}
			}
			t.Fatalf("%s: missing %s %dKB", id, dir, kb)
			return 0
		}
		for _, kb := range []int{1, 2, 4, 8, 16} {
			in, out, inout := get("in", kb), get("out", kb), get("inout", kb)
			if !(out > inout && inout > in) {
				t.Errorf("%s %dKB: ordering wrong: in=%.0f out=%.0f inout=%.0f", id, kb, in, out, inout)
			}
		}
		if get("out", 16) <= get("out", 1) {
			t.Errorf("%s: out cost should grow with size", id)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestFig6OverheadCurve(t *testing.T) {
	r := report(t, "fig6")
	// Endpoints tight; the curve must be non-decreasing.
	var prev float64
	for _, v := range r.Values {
		if v.Got < prev-5 {
			t.Errorf("fig6 overhead decreased: %s = %.1f after %.1f", v.Name, v.Got, prev)
		}
		prev = v.Got
	}
	first, last := r.Values[0], r.Values[len(r.Values)-1]
	if math.Abs(first.Got-first.Paper) > 12 {
		t.Errorf("2KB overhead = %.1f%%, paper %.1f%%", first.Got, first.Paper)
	}
	if math.Abs(last.Got-last.Paper) > 15 {
		t.Errorf("32KB overhead = %.1f%%, paper %.1f%%", last.Got, last.Paper)
	}
}

func TestFig7WriteOverheadFlat(t *testing.T) {
	r := report(t, "fig7")
	for _, v := range r.Values {
		if v.Got < 2 || v.Got > 12 {
			t.Errorf("%s = %.1f%%, want ~6%%", v.Name, v.Got)
		}
	}
}

func TestFig8Slowdowns(t *testing.T) {
	r := report(t, "fig8")
	byName := map[string]float64{}
	for _, v := range r.Values {
		byName[v.Name] = v.Got
	}
	if s := byName["mcf"]; s < 1.3 || s > 1.8 {
		t.Errorf("mcf = %.2fx, paper 1.55x", s)
	}
	if s := byName["libquantum"]; s < 4.2 || s > 6.2 {
		t.Errorf("libquantum = %.2fx, paper 5.2x", s)
	}
	if byName["libquantum"] < byName["mcf"] {
		t.Error("libquantum must dominate mcf")
	}
}

func TestTable2RatesAndCoreTime(t *testing.T) {
	r := report(t, "table2")
	for _, v := range r.Values {
		if v.Paper == 0 {
			continue
		}
		tol := 0.20
		if strings.Contains(v.Name, "core time") || strings.Contains(v.Name, "total") {
			tol = 0.20
		}
		if dev := math.Abs(v.Deviation()); dev > tol {
			t.Errorf("%s: got %.1f, paper %.1f (%.0f%% off)", v.Name, v.Got, v.Paper, dev*100)
		}
	}
}

func TestFig10Fig11AllPoints(t *testing.T) {
	for _, id := range []string{"fig10", "fig11"} {
		r := report(t, id)
		if len(r.Values) != 12 {
			t.Fatalf("%s has %d points, want 12", id, len(r.Values))
		}
		for _, v := range r.Values {
			// Calibrated points within 12%, predictions within 25%.
			tol := 0.25
			if strings.Contains(v.Name, "native") || strings.Contains(v.Name, " sgx") {
				tol = 0.15
			}
			if dev := math.Abs(v.Deviation()); dev > tol {
				t.Errorf("%s %s: got %.1f %s, paper %.1f (%.0f%% off)",
					id, v.Name, v.Got, v.Unit, v.Paper, dev*100)
			}
		}
	}
}

func TestFig10SpeedupClaims(t *testing.T) {
	// Headline claims: HotCalls+NRZ boosts throughput 2.6-3.7x over the
	// unoptimized SGX port.
	r := report(t, "fig10")
	byName := map[string]float64{}
	for _, v := range r.Values {
		byName[v.Name] = v.Got
	}
	for _, app := range appOrder {
		boost := byName[app+" hotcalls+nrz"] / byName[app+" sgx"]
		if boost < 2.3 || boost > 4.2 {
			t.Errorf("%s: NRZ boost = %.2fx, paper range 2.6-3.7x", app, boost)
		}
	}
}

func TestFig11LatencyReductionClaims(t *testing.T) {
	// Headline claims: latency reduced by 62-74% vs the unoptimized port.
	r := report(t, "fig11")
	byName := map[string]float64{}
	for _, v := range r.Values {
		byName[v.Name] = v.Got
	}
	for _, app := range appOrder {
		reduction := 1 - byName[app+" hotcalls+nrz"]/byName[app+" sgx"]
		if reduction < 0.5 || reduction > 0.85 {
			t.Errorf("%s: latency reduction = %.0f%%, paper range 62-74%%", app, reduction*100)
		}
	}
}

// allReports returns every experiment's (cached) report in All() order —
// what hotbench -run all and Markdown() produce.
func allReports(t *testing.T) []*Report {
	t.Helper()
	var out []*Report
	for _, e := range All() {
		out = append(out, report(t, e.ID))
	}
	return out
}

func TestReportsRender(t *testing.T) {
	reports := allReports(t)
	for i, e := range All() {
		r := reports[i]
		if r.ID != e.ID {
			t.Errorf("%s: report ID mismatch", e.ID)
		}
		if r.Table == "" {
			t.Errorf("%s: empty rendered table", e.ID)
		}
		if len(r.Values) == 0 {
			t.Errorf("%s: no structured values", e.ID)
		}
	}
}

// TestCommittedArtifactsCurrent holds the committed BENCH_hotcalls.json,
// EXPERIMENTS.md and REPORT.md to a fresh run of this tree: every
// experiment reports only quantities that repeat exactly, so a difference
// means the change that moved, added or deleted a number did not
// regenerate them (make experiments).  It reuses the runs the tests above
// cached.
func TestCommittedArtifactsCurrent(t *testing.T) {
	reports := allReports(t)

	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotcalls.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed JSONReport
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("BENCH_hotcalls.json: %v", err)
	}
	// The compiler may fuse x*y+z on other architectures, which moves
	// last digits: exactness is a same-architecture property, and the
	// artifact's header says where it was generated.
	if committed.GOARCH != runtime.GOARCH {
		t.Skipf("baseline generated on %s, running on %s", committed.GOARCH, runtime.GOARCH)
	}
	if lines := artifactDiff(committed, BuildJSONReport(reports)); len(lines) > 0 {
		t.Errorf("BENCH_hotcalls.json is stale in %d keys (make experiments re-pins it):\n%s", len(lines), strings.Join(lines, "\n"))
	}

	report, err := renderReport(reports)
	if err != nil {
		t.Error(err)
	}
	for name, fresh := range map[string]string{"EXPERIMENTS.md": renderMarkdown(reports), "REPORT.md": report} {
		md, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if fresh == string(md) {
			continue
		}
		gl, wl := strings.Split(fresh, "\n"), strings.Split(string(md), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s is stale at line %d:\ncommitted %q\nfresh     %q", name, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s is stale: committed %d lines, fresh %d", name, len(wl), len(gl))
	}
}

// TestReportDeterministic pins the byte-determinism contract REPORT.md
// rests on: a second rendering of the same reports is identical, and so
// is a rendering after re-running the experiments whose samples it plots
// and tabulates (fig2, fig3).
func TestReportDeterministic(t *testing.T) {
	reports := allReports(t)
	first, _ := renderReport(reports)
	if again, _ := renderReport(reports); again != first {
		t.Fatal("two renderings of the same reports differ")
	}
	rerun := make([]*Report, len(reports))
	for i, r := range reports {
		rerun[i] = r
		if r.ID == "fig2" || r.ID == "fig3" {
			rerun[i] = Get(r.ID).Run()
		}
	}
	if md, _ := renderReport(rerun); md != first {
		t.Fatal("re-running fig2 and fig3 changed REPORT.md")
	}
}

// TestReportSections checks REPORT.md carries every promised section and
// one embedded SVG per figure.
func TestReportSections(t *testing.T) {
	md, _ := renderReport(allReports(t))
	for _, want := range []string{
		"## Headline medians",
		"## Call latency CDFs",
		"### Percentiles (cycles)",
		"### Leaf instructions",
		"## Buffer sweep",
		"## Application throughput",
		"### Request latency under HotCalls",
		"## Paper fidelity",
		"ecall_warm", "ocall_cold", "hotecall_warm",
		"eenter_warm", "eexit_warm",
		"memcached_hotcalls_request", "lighttpd_hotcalls_request",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("REPORT.md missing %q", want)
		}
	}
	if got := strings.Count(md, "<svg"); got != 3 {
		t.Errorf("embedded SVG count = %d, want 3 (warm CDF, cold CDF, sweep)", got)
	}
	if n := strings.Count(md, "</svg>"); n != 3 {
		t.Errorf("unclosed SVG: %d closing tags for 3 figures", n)
	}
}

// TestReportSampleCounts checks every call series REPORT.md plots holds
// the runs it measured — no more (a leaked warm-up), and at most the 1%
// the AEX filter discards fewer — and has a CDF to plot.
func TestReportSampleCounts(t *testing.T) {
	for _, s := range []struct{ id, name string }{
		{"fig2", "ecall_warm"}, {"fig2", "ecall_cold"}, {"fig2", "ocall_warm"}, {"fig2", "ocall_cold"},
		{"fig2", "eenter_warm"}, {"fig2", "eexit_warm"},
		{"fig3", "hotecall_warm"}, {"fig3", "hotecall_cold"},
	} {
		runs := microRuns
		if strings.HasSuffix(s.name, "_cold") {
			runs = microRuns / 4
		}
		sample := report(t, s.id).Sample(s.name)
		if n := sample.Len(); n > runs || n < runs*99/100 {
			t.Errorf("%s/%s holds %d samples, want %d less at most 1%%", s.id, s.name, n, runs)
		}
		if len(sample.CDF(cdfPoints)) == 0 {
			t.Errorf("%s/%s has no CDF points", s.id, s.name)
		}
	}
}

// TestFidelityMatchesCommittedReport uses the committed REPORT.md as the
// fidelity table's golden file: it carries one row per fidelity metric, in
// order, with the table's paper value and band, and replaying each row's
// measured-vs-paper pair through Value.Deviation resolves the committed
// change and an in-band verdict.
func TestFidelityMatchesCommittedReport(t *testing.T) {
	md, err := os.ReadFile(filepath.Join("..", "..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(md), "\n## Paper fidelity\n")
	if !ok {
		t.Fatal("committed REPORT.md has no Paper fidelity section")
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 6 || strings.TrimSpace(cells[0]) == "metric" || strings.HasPrefix(cells[0], "---") {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) != len(fidelity) {
		t.Fatalf("committed REPORT.md carries %d fidelity rows, want %d", len(rows), len(fidelity))
	}
	for i, row := range fidelity {
		c := rows[i]
		measured, err1 := strconv.ParseFloat(c[1], 64)
		change, err2 := strconv.ParseFloat(strings.TrimSuffix(c[3], "%"), 64)
		if c[0] != row.name || err1 != nil || err2 != nil {
			t.Errorf("row %d = %q, want %s with numeric measured and change", i, c, row.name)
			continue
		}
		if want := f2(row.paper); c[2] != want {
			t.Errorf("%s: committed paper %s, table %s", row.name, c[2], want)
		}
		if want := fmt.Sprintf("±%.0f%%", row.band); c[4] != want {
			t.Errorf("%s: committed band %s, table %s", row.name, c[4], want)
		}
		// The committed measured value is rounded to two decimals and the
		// change to one, so the replay may differ by both roundings.
		dev := Value{Got: measured, Paper: row.paper}.Deviation() * 100
		if tol := 0.05 + 0.005/row.paper*100 + 1e-9; math.Abs(dev-change) > tol {
			t.Errorf("%s: replayed change %+.2f%%, committed %s", row.name, dev, c[3])
		}
		if math.Abs(dev) > row.band || c[5] != "ok" {
			t.Errorf("%s: committed verdict %q at %+.1f%% against a ±%.0f%% band", row.name, c[5], dev, row.band)
		}
	}
	if want := fmt.Sprintf("\n**PASS** — all %d metrics within tolerance.\n", len(fidelity)); !strings.Contains(section, want) {
		t.Errorf("committed REPORT.md lacks %q", strings.TrimSpace(want))
	}
}

// TestFidelityOrdering sanity-checks the physics REPORT.md claims: the
// HotCall median sits far below both SDK crossings, and cold SDK medians
// exceed warm ones.
func TestFidelityOrdering(t *testing.T) {
	fig2, fig3 := report(t, "fig2"), report(t, "fig3")
	med := func(name string) float64 { return fig2.Sample(name).Median() }
	if hot, ec := fig3.Sample("hotecall_warm").Median(), med("ecall_warm"); hot*5 > ec {
		t.Errorf("hotcall median %.0f not well below warm ecall median %.0f", hot, ec)
	}
	if w, c := med("ecall_warm"), med("ecall_cold"); c <= w {
		t.Errorf("ecall cold median %.0f <= warm %.0f", c, w)
	}
	if w, c := med("ocall_warm"), med("ocall_cold"); c <= w {
		t.Errorf("ocall cold median %.0f <= warm %.0f", c, w)
	}
}

// TestFidelityOutOfBandFails pushes Figure 3's median out of its band:
// REPORT.md must render the row and the verdict as failures, and the
// -docs path must still write all three renderings and return the error.
func TestFidelityOutOfBandFails(t *testing.T) {
	var reports []*Report
	for _, r := range allReports(t) {
		if r.ID == "fig3" {
			pushed := *r
			pushed.Values = append([]Value(nil), r.Values...)
			pushed.Values[0].Got = 2 * r.Value("hotcall median")
			r = &pushed
		}
		reports = append(reports, r)
	}
	md, err := renderReport(reports)
	if err == nil || !strings.Contains(err.Error(), "hotcall_median_cycles") {
		t.Fatalf("fidelity error = %v, want one naming hotcall_median_cycles", err)
	}
	_, row, _ := strings.Cut(md, "\n| hotcall_median_cycles |")
	row, _, _ = strings.Cut(row, "\n")
	if !strings.Contains(md, "\n**FAIL** — ") || !strings.HasSuffix(row, "| **out of band** |") {
		t.Fatalf("REPORT.md does not show the failure:\n%s", md[strings.Index(md, "## Paper fidelity"):])
	}
	dir := t.TempDir()
	if err := writeDocs(dir, reports); err == nil {
		t.Fatal("writeDocs passed an out-of-band report")
	}
	for _, name := range []string{"EXPERIMENTS.md", "REPORT.md", "BENCH_hotcalls.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("failing run did not write %s: %v", name, err)
		}
	}
}

// TestProfileCrossValidation pins the experiment-level form of the
// profiler's acceptance criterion: every trace-attributed component is
// within ±5% of the analytic model (the full per-component matrix,
// including absent components, lives in internal/profile's tests).
func TestProfileCrossValidation(t *testing.T) {
	r := report(t, "profile")
	if len(r.Values) == 0 {
		t.Fatal("profile experiment produced no values")
	}
	for _, v := range r.Values {
		if dev := math.Abs(v.Deviation()); dev > 0.05 {
			t.Errorf("%s: trace %.1f vs analytic %.1f (%.1f%% apart)", v.Name, v.Got, v.Paper, dev*100)
		}
	}
	if !strings.Contains(r.Table, "hotecall:ecall_empty") {
		t.Errorf("profile table missing hotcall row:\n%s", r.Table)
	}
}

func TestBreakdownSharesReflectTable2(t *testing.T) {
	r := report(t, "breakdown")
	byName := map[string]float64{}
	for _, v := range r.Values {
		byName[v.Name] = v.Got
	}
	// The SGX edge-call share is the paper's Table 2 core-time column
	// measured from the inside.  The profiled envelope also includes
	// marshalling and kernel service, so it sits somewhat above the
	// paper's warm-call-only arithmetic — but must track it.
	for app, paper := range map[string]float64{"memcached": 42, "openvpn": 57, "lighttpd": 56} {
		got := byName[app+" sgx edge-call share"]
		if got < paper*0.9 || got > paper*1.35 {
			t.Errorf("%s sgx call share = %.1f%%, paper estimate %.0f%%", app, got, paper)
		}
		hot := byName[app+" hotcalls edge-call share"]
		if hot >= got/2 {
			t.Errorf("%s: hotcalls call share %.1f%% should be far below sgx %.1f%%", app, hot, got)
		}
	}
}
