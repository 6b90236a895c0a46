package epcstat

import (
	"net/http"

	"hotcalls/internal/dist"
	"hotcalls/internal/epc"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// Handler serves the observatory at /debug/epc under the shared ?format=
// contract (telemetry.Formats): json (the default) is the Snapshot, text
// its RenderText, svg the deterministic fault heatmap.  Safe on a nil
// collector (serves an empty snapshot).
func Handler(c *Collector) http.Handler {
	return telemetry.Formats{
		telemetry.JSON(func(*http.Request) any {
			if s := c.Snapshot(); s != nil {
				return s
			}
			return &Snapshot{Schema: SnapshotSchema}
		}),
		telemetry.Text("text", telemetry.ContentTypeText, func(*http.Request) string { return c.Snapshot().RenderText() }),
		telemetry.Text("svg", telemetry.ContentTypeSVG, func(*http.Request) string { return HeatSVG(c.Snapshot()) }),
	}
}

// HeatSVG renders the snapshot's fault heatmap as a byte-deterministic
// SVG line chart (one series for the total, one per owner), reusing the
// internal/dist renderer.  Safe on a nil snapshot.
func HeatSVG(s *Snapshot) string {
	cfg := dist.PlotConfig{
		Title:  "EPC fault heatmap",
		XLabel: "address offset (MB)",
		YLabel: "faults per bucket",
	}
	if s == nil || len(s.Heat) == 0 {
		return dist.RenderLinesSVG(cfg, nil)
	}
	bucketMB := float64(s.PagesPerBucket) * float64(epc.PageSize) / (1 << 20)
	series := []dist.Series{heatSeries("all", s.Heat, bucketMB)}
	for _, o := range s.Owners {
		if len(o.Heat) == 0 {
			continue
		}
		series = append(series, heatSeries(ownerName(o.Owner, o.Label), o.Heat, bucketMB))
	}
	return dist.RenderLinesSVG(cfg, series)
}

func heatSeries(name string, heat []uint64, bucketMB float64) dist.Series {
	pts := make([]sim.CDFPoint, len(heat))
	for i, n := range heat {
		pts[i] = sim.CDFPoint{Value: float64(i) * bucketMB, Fraction: float64(n)}
	}
	return dist.Series{Name: name, Points: pts}
}
