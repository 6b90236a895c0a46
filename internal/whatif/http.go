package whatif

import (
	"net/http"

	"hotcalls/internal/telemetry"
)

// Handler serves the observatory at /debug/whatif under the shared
// ?format= contract (telemetry.Formats): json (the default) is the
// combined Report, text its RenderText, svg the causal curves (or the
// policy-cost figure).  Safe on a nil observatory.
func Handler(o *Observatory) http.Handler {
	return telemetry.Formats{
		telemetry.JSON(func(*http.Request) any { return o.Report() }),
		telemetry.Text("text", telemetry.ContentTypeText, func(*http.Request) string { return o.Report().RenderText() }),
		telemetry.Text("svg", telemetry.ContentTypeSVG, func(*http.Request) string { return o.Report().RenderSVG() }),
	}
}
