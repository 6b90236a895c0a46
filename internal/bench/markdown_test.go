package bench

import (
	"strings"
	"testing"

	"hotcalls/internal/sim"
)

func TestAsciiCDFShape(t *testing.T) {
	points := []sim.CDFPoint{}
	for i := 1; i <= 40; i++ {
		points = append(points, sim.CDFPoint{Value: float64(i * 100), Fraction: float64(i) / 40})
	}
	plot := asciiCDF("test", points, 40, 8)
	if !strings.Contains(plot, "test") || !strings.Contains(plot, "*") {
		t.Fatalf("plot missing content:\n%s", plot)
	}
	lines := strings.Split(strings.TrimRight(plot, "\n"), "\n")
	if len(lines) != 1+8+2 { // title + rows + axis + labels
		t.Fatalf("plot has %d lines:\n%s", len(lines), plot)
	}
	// A monotone CDF puts stars on or above the diagonal: top row ends
	// with the max, bottom row starts near the min.
	if !strings.Contains(lines[1], "*") {
		t.Error("top fraction row empty")
	}
}

func TestAsciiCDFDegenerate(t *testing.T) {
	if asciiCDF("x", nil, 40, 8) != "" {
		t.Error("empty points should render nothing")
	}
	one := []sim.CDFPoint{{Value: 5, Fraction: 1}}
	if plot := asciiCDF("x", one, 40, 8); !strings.Contains(plot, "*") {
		t.Error("single-point CDF should still plot")
	}
	if asciiCDF("x", one, 2, 8) != "" {
		t.Error("too-narrow plot should render nothing")
	}
}

func TestMarkdownStructure(t *testing.T) {
	md := renderMarkdown(allReports(t))
	for _, want := range []string{
		"# EXPERIMENTS", "## table1", "## fig10", "## ablation-cores",
		"Known divergences", "Worst deviation",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}
