// Package dist renders latency distributions and sweeps as standalone
// SVG: multi-series CDFs (log-x) and linear lines, for REPORT.md's
// figures and the /debug/epc heatmap.  Output is a pure function of its
// inputs — fixed-precision coordinates, no timestamps, no map iteration —
// so REPORT.md regenerates byte-identically under a fixed seed (the
// golden test in svg_test.go pins this).
package dist

import (
	"fmt"
	"math"
	"strings"

	"hotcalls/internal/sim"
)

// Validated categorical palette (light mode), first three slots of the
// reference order: blue, orange, aqua.  Three slots clear the all-pairs
// CVD and normal-vision floors; the aqua slot sits below 3:1 contrast on
// the light surface, so every chart ships a legend plus direct series
// labels (the relief rule) — identity never rides on color alone.
var seriesColors = []string{"#2a78d6", "#eb6834", "#1baf7a"}

// Chart chrome ink (light mode): surface, primary/secondary text, muted
// axis labels, hairline grid, baseline.
const (
	inkSurface   = "#fcfcfb"
	inkPrimary   = "#0b0b0b"
	inkSecondary = "#52514e"
	inkMuted     = "#898781"
	inkGrid      = "#e1e0d9"
	inkBaseline  = "#c3c2b7"

	fontStack = `system-ui, -apple-system, &quot;Segoe UI&quot;, sans-serif`
)

// Series is one named line of a plot.  A CDF's points are
// (latency, fraction); a sweep's are (x, y).
type Series struct {
	Name   string
	Points []sim.CDFPoint
}

// PlotConfig tunes RenderLinesSVG.
type PlotConfig struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool    // log10 x axis (latency CDFs span 3 decades)
	YMax   float64 // 0 means auto (1.0 when every y <= 1)
	Width  int     // 0 means 720
	Height int     // 0 means 360
}

// RenderCDFSVG renders latency CDFs: log-x, fraction-of-calls y in
// [0, 1], one 2px line per series with a legend and a direct label at
// each series' median crossing.
func RenderCDFSVG(title string, series []Series) string {
	return RenderLinesSVG(PlotConfig{
		Title:  title,
		XLabel: "latency (cycles)",
		YLabel: "fraction of calls",
		LogX:   true,
		YMax:   1,
	}, series)
}

func fnum(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
}

// tickLabel formats an axis value compactly and deterministically.
func tickLabel(v float64) string {
	switch {
	case v >= 1e6 && v == math.Trunc(v/1e5)*1e5:
		return fnum(v/1e6) + "M"
	case v >= 1e3 && v == math.Trunc(v/1e2)*1e2:
		return fnum(v/1e3) + "k"
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fnum(v)
	}
}

// logTicks returns 1-2-5 ticks covering [lo, hi] on a log axis, falling
// back to decades only when the range is wide.
func logTicks(lo, hi float64) []float64 {
	var ticks []float64
	startExp := int(math.Floor(math.Log10(lo)))
	endExp := int(math.Ceil(math.Log10(hi)))
	for e := startExp; e <= endExp; e++ {
		for _, m := range []float64{1, 2, 5} {
			v := m * math.Pow(10, float64(e))
			if v >= lo*0.999 && v <= hi*1.001 {
				ticks = append(ticks, v)
			}
		}
	}
	if len(ticks) > 8 { // wide range: decades only
		dec := ticks[:0]
		for e := startExp; e <= endExp; e++ {
			v := math.Pow(10, float64(e))
			if v >= lo*0.999 && v <= hi*1.001 {
				dec = append(dec, v)
			}
		}
		ticks = dec
	}
	return ticks
}

// linTicks returns ~5 nice-step ticks covering [lo, hi].
func linTicks(lo, hi float64) []float64 {
	raw := (hi - lo) / 5
	if raw <= 0 {
		return []float64{lo}
	}
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	step := mag
	for _, m := range []float64{1, 2, 5, 10} {
		if m*mag >= raw {
			step = m * mag
			break
		}
	}
	var ticks []float64
	for v := math.Ceil(lo/step) * step; v <= hi*1.001; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// RenderLinesSVG renders a multi-series line chart.  Degenerate inputs
// are handled explicitly: no data renders a labelled empty frame, a
// zero-width x range is padded, and single-point series draw a marker
// instead of a line.
func RenderLinesSVG(cfg PlotConfig, series []Series) string {
	w, h := cfg.Width, cfg.Height
	if w <= 0 {
		w = 720
	}
	if h <= 0 {
		h = 360
	}
	const (
		padL, padR = 64, 20
		padT, padB = 52, 56
	)
	plotW, plotH := float64(w-padL-padR), float64(h-padT-padB)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="%s">`+"\n",
		w, h, w, h, escape(cfg.Title))
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, inkSurface)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="%s" font-size="15" font-weight="600" fill="%s">%s</text>`+"\n",
		padL, fontStack, inkPrimary, escape(cfg.Title))

	// Data extent over non-empty series.
	lo, hi := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range series {
		for _, p := range s.Points {
			total++
			if p.Value < lo {
				lo = p.Value
			}
			if p.Value > hi {
				hi = p.Value
			}
		}
	}
	if total == 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="%s" font-size="13" fill="%s">no data</text>`+"\n",
			w/2-24, h/2, fontStack, inkSecondary)
		b.WriteString("</svg>\n")
		return b.String()
	}
	if cfg.LogX && lo < 1 {
		lo = 1
	}
	if hi <= lo { // all-identical samples: pad the range
		if cfg.LogX {
			lo, hi = lo/1.25, lo*1.25
		} else {
			lo, hi = lo-1, hi+1
		}
	}
	ymax := cfg.YMax
	if ymax <= 0 {
		for _, s := range series {
			for _, p := range s.Points {
				if p.Fraction > ymax {
					ymax = p.Fraction
				}
			}
		}
		if ymax <= 0 {
			ymax = 1
		}
		ymax = linTicksCeil(ymax)
	}

	xpos := func(v float64) float64 {
		if cfg.LogX {
			if v < lo {
				v = lo
			}
			return float64(padL) + plotW*(math.Log10(v)-math.Log10(lo))/(math.Log10(hi)-math.Log10(lo))
		}
		return float64(padL) + plotW*(v-lo)/(hi-lo)
	}
	ypos := func(f float64) float64 { return float64(padT) + plotH*(1-f/ymax) }

	// Grid + ticks.
	var xt []float64
	if cfg.LogX {
		xt = logTicks(lo, hi)
	} else {
		xt = linTicks(lo, hi)
	}
	for _, v := range xt {
		x := xpos(v)
		fmt.Fprintf(&b, `<line x1="%s" y1="%d" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
			fnum(x), padT, fnum(x), fnum(float64(padT)+plotH), inkGrid)
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="%s" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			fnum(x), fnum(float64(padT)+plotH+16), fontStack, inkMuted, tickLabel(v))
	}
	ysteps := 4
	for i := 0; i <= ysteps; i++ {
		f := ymax * float64(i) / float64(ysteps)
		y := ypos(f)
		fmt.Fprintf(&b, `<line x1="%d" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
			padL, fnum(y), fnum(float64(padL)+plotW), fnum(y), inkGrid)
		fmt.Fprintf(&b, `<text x="%d" y="%s" font-family="%s" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			padL-8, fnum(y+4), fontStack, inkMuted, tickLabel(f))
	}
	// Baseline axis.
	fmt.Fprintf(&b, `<line x1="%d" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
		padL, fnum(float64(padT)+plotH), fnum(float64(padL)+plotW), fnum(float64(padT)+plotH), inkBaseline)
	// Axis titles.
	fmt.Fprintf(&b, `<text x="%s" y="%d" font-family="%s" font-size="12" fill="%s" text-anchor="middle">%s</text>`+"\n",
		fnum(float64(padL)+plotW/2), h-12, fontStack, inkSecondary, escape(cfg.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%s" font-family="%s" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 16 %s)">%s</text>`+"\n",
		fnum(float64(padT)+plotH/2), fontStack, inkSecondary, fnum(float64(padT)+plotH/2), escape(cfg.YLabel))

	// Series lines (2px), plus a direct label at each series' midpoint.
	for si, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		color := seriesColors[si%len(seriesColors)]
		if len(s.Points) == 1 {
			p := s.Points[0]
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="4" fill="%s"/>`+"\n",
				fnum(xpos(p.Value)), fnum(ypos(p.Fraction)), color)
		} else {
			var path strings.Builder
			for i, p := range s.Points {
				cmd := "L"
				if i == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%s %s ", cmd, fnum(xpos(p.Value)), fnum(ypos(p.Fraction)))
			}
			fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`+"\n",
				strings.TrimRight(path.String(), " "), color)
		}
		mid := s.Points[len(s.Points)/2]
		fmt.Fprintf(&b, `<text x="%s" y="%s" font-family="%s" font-size="11" fill="%s">%s</text>`+"\n",
			fnum(xpos(mid.Value)+6), fnum(ypos(mid.Fraction)-6), fontStack, inkSecondary, escape(s.Name))
	}

	// Legend row under the title: 2px line swatch + name in text ink.
	x := float64(padL)
	for si, s := range series {
		color := seriesColors[si%len(seriesColors)]
		fmt.Fprintf(&b, `<line x1="%s" y1="36" x2="%s" y2="36" stroke="%s" stroke-width="2"/>`+"\n",
			fnum(x), fnum(x+18), color)
		fmt.Fprintf(&b, `<text x="%s" y="40" font-family="%s" font-size="12" fill="%s">%s</text>`+"\n",
			fnum(x+24), fontStack, inkSecondary, escape(s.Name))
		x += 24 + 7.2*float64(len(s.Name)) + 18
	}

	b.WriteString("</svg>\n")
	return b.String()
}

// linTicksCeil rounds an auto y-max up to a nice value so the top grid
// line clears the data.
func linTicksCeil(v float64) float64 {
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 1.2, 1.5, 2, 2.5, 4, 5, 8, 10} {
		if m*mag >= v {
			return m * mag
		}
	}
	return 10 * mag
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
