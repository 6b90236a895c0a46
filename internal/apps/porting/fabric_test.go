package porting_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// fabricPort is one fabric port as the kit sees it: the embedded Fabric,
// the port's own Start (lighttpd's builds its images first), and traffic
// on one connection that pages under that connection's name only.
type fabricPort struct {
	name string
	boot func(conns int, opts core.PoolOptions) (f *porting.Fabric, start func(), drive func(conn int) error)
}

var fabricPorts = []fabricPort{
	{"memcached", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
		s := memcached.NewPoolServer(conns, opts)
		return &s.Fabric, s.Start, func(conn int) error {
			val := bytes.Repeat([]byte{0xAB}, memcached.ValueSize)
			for i := 0; i < 32; i++ {
				key := fmt.Sprintf("conn%d-key%d", conn, i)
				if resp, err := s.Conn(conn).Do(&memcached.Request{Op: memcached.OpSet, Key: key, Value: val}); err != nil || resp.Status != memcached.StatusOK {
					return fmt.Errorf("SET %s = (%+v, %v)", key, resp, err)
				}
				if resp, err := s.Conn(conn).Do(&memcached.Request{Op: memcached.OpGet, Key: key}); err != nil || !bytes.Equal(resp.Value, val) {
					return fmt.Errorf("GET %s = (%+v, %v)", key, resp, err)
				}
			}
			return nil
		}
	}},
	{"lighttpd", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
		s := lighttpd.NewPoolServer(conns, opts)
		return &s.Fabric, s.Start, func(conn int) error {
			for i := 0; i < 32; i++ {
				// The index's pages are every connection's; a miss is
				// this one's alone.
				for _, req := range []struct{ path, status string }{
					{"/index.html", "HTTP/1.0 200"},
					{fmt.Sprintf("/conn%d-missing%d.html", conn, i), "HTTP/1.0 404"},
				} {
					resp, err := s.Conn(conn).Do("GET " + req.path + " HTTP/1.0\r\nHost: kit\r\n\r\n")
					if err != nil || !bytes.HasPrefix(resp, []byte(req.status)) {
						return fmt.Errorf("GET %s = (%.20q, %v)", req.path, resp, err)
					}
				}
			}
			return nil
		}
	}},
	{"openvpn", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
		s := openvpn.NewPoolServer(conns, opts)
		return &s.Fabric, s.Start, func(conn int) error {
			window := make([][]byte, 16)
			for i := range window {
				window[i] = bytes.Repeat([]byte{byte(conn), byte(i)}, openvpn.IperfPayload/2)
			}
			for i := 0; i < 4; i++ {
				if n, err := s.Conn(conn).Stream(window[i : i+1]); err != nil || n != 1 {
					return fmt.Errorf("forward %d = (%d, %v)", i, n, err)
				}
				if n, err := s.Conn(conn).Stream(window); err != nil || n != len(window) {
					return fmt.Errorf("stream %d = (%d, %v)", i, n, err)
				}
			}
			return nil
		}
	}},
}

// kitPoolOpts gives submissions patience, as the ports' own tests do.
func kitPoolOpts() core.PoolOptions {
	return core.PoolOptions{SlotsPerShard: 16, MaxResponders: 2, Timeout: 1 << 20}
}

// contentTypeOf is the Content-Type each ?format= name is served under.
var contentTypeOf = map[string]string{
	"json":  telemetry.ContentTypeJSON,
	"text":  telemetry.ContentTypeText,
	"svg":   telemetry.ContentTypeSVG,
	"trace": telemetry.ContentTypeJSON,
}

// typeFamilies lists the family names a Prometheus exposition declares,
// one per # TYPE line, in order.
func typeFamilies(exposition string) []string {
	var names []string
	for _, line := range strings.Split(exposition, "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(decl, " ")
			names = append(names, name)
		}
	}
	return names
}

// TestFabricKitAllArmed arms every observer on each port through the one
// Arm call, drives real traffic on two connections at once (armPort), and
// holds the debug surface to its contract: the /debug/ index lists
// exactly the catalogued endpoints, and each answers 200 in every
// rendering it advertises, under that rendering's Content-Type, and 400
// for an unknown one; every family in /metrics appears once and has a row
// in the consumer table (signals_test.go), which also holds what traffic
// must have moved; and EPC pressure is attributed to both connections by
// name.
func TestFabricKitAllArmed(t *testing.T) {
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			a := armPort(t, port)
			f := a.f
			if f.Monitor() == nil || f.Incidents() == nil || f.EPC() == nil || f.EPCManager() == nil {
				t.Fatal("an armed observer reads back nil")
			}
			if f.Monitor().EPCStat() != f.EPC() || f.Monitor().Flight() != f.Pool().Flight() {
				t.Fatal("the monitor was not built over the armed collectors")
			}

			// Walk the index.  Health answers 503, in every rendering,
			// when a rule is critical — and on a slow host (the race
			// detector's) the latency rules may well be.
			served := func(path string, code int) bool {
				return code == http.StatusOK || (path == "/debug/health" && code == http.StatusServiceUnavailable)
			}
			_, _, indexBody := a.get(t, "/debug/")
			var index struct {
				Endpoints []monitor.DebugEntry `json:"endpoints"`
			}
			if err := json.Unmarshal([]byte(indexBody), &index); err != nil {
				t.Fatalf("/debug/ index: %v\n%s", err, indexBody)
			}
			var listed []string
			for _, e := range index.Endpoints {
				listed = append(listed, e.Path)
				code, defaultCT, _ := a.get(t, e.Path)
				if !served(e.Path, code) || defaultCT == "" {
					t.Errorf("%s = %d, Content-Type %q", e.Path, code, defaultCT)
				}
				for i, name := range e.Formats {
					code, ct, _ := a.get(t, e.Path+"?format="+name)
					if !served(e.Path, code) || ct != contentTypeOf[name] {
						t.Errorf("%s?format=%s = %d, Content-Type %q, want %q", e.Path, name, code, ct, contentTypeOf[name])
					}
					if i == 0 && defaultCT != ct {
						t.Errorf("%s default Content-Type %q, want its first format's %q", e.Path, defaultCT, ct)
					}
				}
				if len(e.Formats) > 0 {
					code, _, body := a.get(t, e.Path+"?format=bogus")
					if code != http.StatusBadRequest || !strings.Contains(body, e.Formats[0]) {
						t.Errorf("%s?format=bogus = %d %q, want 400 naming the formats", e.Path, code, body)
					}
				}
			}
			catalogue := []string{"/debug/epc", "/debug/flight", "/debug/health", "/debug/incidents", "/debug/monitor", "/metrics"}
			if !slices.Equal(listed, catalogue) { // the index is sorted by path
				t.Errorf("/debug/ index lists %v, want exactly %v", listed, catalogue)
			}
			if code, _, _ := a.get(t, "/debug/?format=text"); code != http.StatusOK {
				t.Errorf("/debug/?format=text = %d", code)
			}

			// One exposition, every armed source.
			_, ct, metrics := a.get(t, "/metrics")
			if ct != telemetry.ContentTypeMetrics {
				t.Errorf("/metrics Content-Type %q", ct)
			}
			declared := map[string]bool{}
			for _, name := range typeFamilies(metrics) {
				if _, ok := signalTable[name]; !ok {
					t.Errorf("/metrics family %s has no row in the consumer table", name)
				}
				if declared[name] {
					t.Errorf("/metrics declares family %s more than once", name)
				}
				declared[name] = true
			}
			if faults := f.EPC().Snapshot().Faults; faults == 0 ||
				!strings.Contains(metrics, fmt.Sprintf("%s %d\n", telemetry.MetricEPCFaults, faults)) {
				t.Errorf("registry and observatory disagree on %d EPC faults", faults)
			}

			// Both connections paged, each under its own name.
			owners := map[string]uint64{}
			for _, o := range f.EPC().Snapshot().Owners {
				owners[o.Label] = o.Faults
			}
			if len(owners) != 2 || owners["conn0"] == 0 || owners["conn1"] == 0 {
				t.Errorf("per-owner EPC faults = %v, want conn0 and conn1 both paging", owners)
			}
			if _, _, text := a.get(t, "/debug/epc?format=text"); !strings.Contains(text, "conn0(#1)") || !strings.Contains(text, "conn1(#2)") {
				t.Errorf("/debug/epc?format=text does not name both connections:\n%s", text)
			}
		})
	}
}

// TestFabricKitBundleCarriesOutliers: a port built on the kit and armed
// through Arm captures incident bundles that carry the flight recorder's
// outlier records.  The port's handler is wedged, so its submissions time
// out and fall back; the fallback-storm rule fires, and the bundle must
// hold the timed-out calls even at the recorder's production sampling
// rate, where uniform sampling would have kept none of them.
func TestFabricKitBundleCarriesOutliers(t *testing.T) {
	gate := make(chan struct{})
	f := porting.NewFabric(porting.FabricSpec{Callsites: []string{"wedge.op"}}, 1,
		[]core.PoolFunc{func(_ int, d uint64) uint64 { <-gate; return d }},
		core.PoolOptions{SlotsPerShard: 4, MaxResponders: 1, Timeout: 1024})
	f.Arm(porting.Observers{
		Registry:  telemetry.New(),
		Flight:    flight.New(flight.Options{}),
		Incidents: &incident.Options{},
	})
	f.Start()
	req := f.Pool().Requester()

	// Wedge: the responder claims the first call and blocks in the
	// handler; the rest of the window fills behind it.
	parked, err := req.SubmitV([]core.VecCall{{Data: 0}, {Data: 1}, {Data: 2}, {Data: 3}})
	if err != nil {
		t.Fatal(err)
	}
	f.Monitor().Tick() // baseline
	for i := 0; i < 100; i++ {
		_, _ = req.CallOrFallback(core.VecCall{Data: uint64(i), Site: f.Callsite(0)}, func() (uint64, error) { return 0, nil })
	}
	f.Monitor().Tick() // the storm rule fires and the capturer freezes a bundle
	close(gate)
	_ = parked.WaitAll(nil)
	f.Stop()

	bundles := f.Incidents().Bundles()
	if len(bundles) == 0 {
		t.Fatal("no bundle captured: the fallback-storm rule did not fire")
	}
	var timedOut int
	for _, v := range bundles[0].Outliers {
		if v.TimedOut && v.Name == "wedge.op" {
			timedOut++
		}
	}
	if timedOut == 0 {
		t.Fatalf("bundle %s carries %d outlier records, none a timed-out wedge.op call", bundles[0].ID, len(bundles[0].Outliers))
	}
}

// TestFabricArmOnce pins the wiring-order fix: the observers attach in
// one call, so there is no order to get wrong — and a second call, one
// after Start, or one after DebugMux fixed the surface panics instead of
// silently attaching an observer nothing serves.
func TestFabricArmOnce(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", what)
			} else if !strings.Contains(fmt.Sprint(r), "Fabric.Arm") {
				t.Errorf("%s panicked with %v, want the Arm message", what, r)
			}
		}()
		f()
	}
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			f, _, _ := port.boot(1, kitPoolOpts())
			f.Arm(porting.Observers{})
			mustPanic(t, "a second Arm", func() { f.Arm(porting.Observers{Registry: telemetry.New()}) })

			f, start, _ := port.boot(1, kitPoolOpts())
			start()
			defer f.Stop()
			mustPanic(t, "Arm after Start", func() { f.Arm(porting.Observers{}) })

			f, _, _ = port.boot(1, kitPoolOpts())
			if f.Monitor() != nil || f.Incidents() != nil {
				t.Fatal("monitor or capturer exists before anything armed one")
			}
			if f.DebugMux() == nil || f.Monitor() == nil || f.Incidents() == nil {
				t.Fatal("DebugMux did not arm a default monitor and capturer")
			}
			mustPanic(t, "Arm after DebugMux", func() { f.Arm(porting.Observers{}) })
		})
	}
}
