package dist

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotcalls/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden SVG files")

// points pairs up (x, y) coordinates.
func points(xy ...float64) []sim.CDFPoint {
	out := make([]sim.CDFPoint, len(xy)/2)
	for i := range out {
		out[i] = sim.CDFPoint{Value: xy[2*i], Fraction: xy[2*i+1]}
	}
	return out
}

func sampleSeries(t *testing.T) []Series {
	t.Helper()
	mk := func(seed uint64, base, spread int) Series {
		rng := sim.NewRNG(seed)
		var s sim.Sample
		for i := 0; i < 4000; i++ {
			s.Add(float64(base + rng.Intn(spread)))
		}
		return Series{Points: s.CDF(64)}
	}
	a := mk(1, 500, 400)
	a.Name = "hotcall_warm"
	b := mk(2, 8000, 3000)
	b.Name = "ecall_warm"
	c := mk(3, 11000, 8000)
	c.Name = "ecall_cold"
	return []Series{a, b, c}
}

// TestRenderGolden pins the exact bytes of a representative CDF plot: the
// report artifact must regenerate byte-identically, so any change to the
// emitter is a deliberate golden update (-update).
func TestRenderGolden(t *testing.T) {
	got := RenderCDFSVG("Call latency CDF", sampleSeries(t))
	path := filepath.Join("testdata", "cdf_golden.svg")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/dist -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("rendered SVG differs from golden (len %d vs %d); rerun with -update if intended", len(got), len(want))
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := sampleSeries(t)
	if a, b := RenderCDFSVG("t", s), RenderCDFSVG("t", s); a != b {
		t.Fatal("two renders of identical input differ")
	}
}

func TestRenderEmpty(t *testing.T) {
	for _, series := range [][]Series{nil, {}, {{Name: "empty"}}} {
		out := RenderCDFSVG("empty plot", series)
		if !strings.Contains(out, "no data") {
			t.Fatalf("empty input did not render the no-data frame: %q", out)
		}
		if !strings.HasSuffix(out, "</svg>\n") {
			t.Fatal("empty render is not a closed SVG document")
		}
	}
}

func TestRenderSinglePoint(t *testing.T) {
	out := RenderCDFSVG("one point", []Series{{
		Name:   "solo",
		Points: []sim.CDFPoint{{Value: 620, Fraction: 1}},
	}})
	if !strings.Contains(out, "<circle") {
		t.Fatal("single-point series did not render a marker")
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatal("single-point render produced non-finite coordinates")
	}
}

func TestRenderAllIdentical(t *testing.T) {
	var s sim.Sample
	for i := 0; i < 1000; i++ {
		s.Add(620)
	}
	out := RenderCDFSVG("degenerate", []Series{{Name: "same", Points: s.CDF(64)}})
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatal("all-identical samples produced non-finite coordinates")
	}
	if !strings.HasSuffix(out, "</svg>\n") {
		t.Fatal("render is not a closed SVG document")
	}
}

func TestRenderLinearSweep(t *testing.T) {
	out := RenderLinesSVG(PlotConfig{
		Title:  "Buffer sweep",
		XLabel: "buffer KB",
		YLabel: "overhead %",
	}, []Series{
		{Name: "read", Points: points(2, 54.5, 4, 68, 8, 71, 16, 94, 32, 102)},
		{Name: "write", Points: points(2, 4, 4, 5, 8, 6, 16, 6, 32, 7)},
	})
	for _, want := range []string{"Buffer sweep", "read", "write", "<path", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep render missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatal("sweep render produced non-finite coordinates")
	}
}

func TestEscape(t *testing.T) {
	out := RenderCDFSVG(`a<b>&"c"`, []Series{{Name: "x<y", Points: points(1, 0.5, 2, 1)}})
	for _, bad := range []string{`a<b>`, `"c"`, "x<y"} {
		if strings.Contains(out, bad) {
			t.Fatalf("unescaped text %q leaked into SVG", bad)
		}
	}
}
