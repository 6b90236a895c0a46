package porting_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// fabricPort is one fabric port as the kit sees it: the embedded Fabric,
// the port's own Start (lighttpd's builds its images first), and traffic
// on one connection that pages under that connection's name only.
type fabricPort struct {
	name     string
	callsite string // one of the port's flight callsites the traffic exercises
	boot     func(conns int, opts core.PoolOptions) (f *porting.Fabric, start func(), drive func(conn int) error)
}

var fabricPorts = []fabricPort{
	{"memcached", "mc.set", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
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
	{"lighttpd", "http.get", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
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
	{"openvpn", "vpn.stream", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
		s := openvpn.NewPoolServer(conns, opts)
		return &s.Fabric, s.Start, func(conn int) error {
			window := make([][]byte, 16)
			for i := range window {
				window[i] = bytes.Repeat([]byte{byte(conn), byte(i)}, openvpn.IperfPayload/2)
			}
			for i := 0; i < 4; i++ {
				if _, err := s.Conn(conn).Forward(window[i]); err != nil {
					return fmt.Errorf("forward %d: %v", i, err)
				}
				if n, err := s.Conn(conn).Stream(window); err != nil || n != len(window) {
					return fmt.Errorf("stream %d = (%d, %v)", i, n, err)
				}
			}
			return nil
		}
	}},
}

// kitPoolOpts gives submissions patience and walks the responders down
// their idle ladder quickly, as the ports' own tests do.
func kitPoolOpts() core.PoolOptions {
	return core.PoolOptions{SlotsPerShard: 16, MaxResponders: 2, Timeout: 1 << 20, ControlWindow: 8, SpinPasses: 2, YieldPasses: 4}
}

// contentTypeOf is the Content-Type each ?format= name is served under.
var contentTypeOf = map[string]string{
	"json":  telemetry.ContentTypeJSON,
	"text":  telemetry.ContentTypeText,
	"svg":   telemetry.ContentTypeSVG,
	"trace": telemetry.ContentTypeJSON,
}

// TestFabricKitAllArmed arms every observer on each port through the one
// Arm call, drives real traffic on two connections at once, and holds the
// debug surface to its contract: every endpoint the /debug/ index lists
// answers 200 in every rendering it advertises, under that rendering's
// Content-Type, and 400 for an unknown one; /metrics carries series from
// each armed source; and EPC pressure is attributed to both connections
// by name.
func TestFabricKitAllArmed(t *testing.T) {
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			f, start, drive := port.boot(2, kitPoolOpts())
			f.Arm(porting.Observers{
				Registry:  telemetry.New(),
				Flight:    flight.New(flight.Options{SampleEvery: 1}),
				EPCBytes:  256 * epc.PageSize,
				WhatIf:    true,
				Monitor:   &monitor.Options{},
				Incidents: &incident.Options{},
			})
			if f.Monitor() == nil || f.Incidents() == nil || f.WhatIf() == nil || f.EPC() == nil || f.EPCManager() == nil {
				t.Fatal("an armed observer reads back nil")
			}
			if f.Monitor().EPCStat() != f.EPC() || f.Monitor().WhatIf() != f.WhatIf() || f.Monitor().Flight() != f.Pool().Flight() {
				t.Fatal("the monitor was not built over the armed collectors")
			}
			start()
			defer f.Stop()

			f.Monitor().Tick() // baseline primes the interval rules and the shadow router
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for conn := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[conn] = drive(conn)
				}()
			}
			wg.Wait()
			for conn, err := range errs {
				if err != nil {
					t.Fatalf("conn %d: %v", conn, err)
				}
			}
			f.Monitor().Tick()

			srv := httptest.NewServer(f.DebugMux())
			defer srv.Close()
			get := func(path string) (int, string, string) {
				t.Helper()
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
			}

			// Walk the index.  Health answers 503, in every rendering,
			// when a rule is critical — and on a slow host (the race
			// detector's) the latency rules may well be.
			served := func(path string, code int) bool {
				return code == http.StatusOK || (path == "/debug/health" && code == http.StatusServiceUnavailable)
			}
			_, _, indexBody := get("/debug/")
			var index struct {
				Endpoints []monitor.DebugEntry `json:"endpoints"`
			}
			if err := json.Unmarshal([]byte(indexBody), &index); err != nil {
				t.Fatalf("/debug/ index: %v\n%s", err, indexBody)
			}
			listed := map[string]bool{}
			for _, e := range index.Endpoints {
				listed[e.Path] = true
				code, defaultCT, _ := get(e.Path)
				if !served(e.Path, code) || defaultCT == "" {
					t.Errorf("%s = %d, Content-Type %q", e.Path, code, defaultCT)
				}
				for i, name := range e.Formats {
					code, ct, _ := get(e.Path + "?format=" + name)
					if !served(e.Path, code) || ct != contentTypeOf[name] {
						t.Errorf("%s?format=%s = %d, Content-Type %q, want %q", e.Path, name, code, ct, contentTypeOf[name])
					}
					if i == 0 && defaultCT != ct {
						t.Errorf("%s default Content-Type %q, want its first format's %q", e.Path, defaultCT, ct)
					}
				}
				if len(e.Formats) > 0 {
					code, _, body := get(e.Path + "?format=bogus")
					if code != http.StatusBadRequest || !strings.Contains(body, e.Formats[0]) {
						t.Errorf("%s?format=bogus = %d %q, want 400 naming the formats", e.Path, code, body)
					}
				}
			}
			for _, path := range []string{"/metrics", "/debug/health", "/debug/monitor", "/debug/flight",
				"/debug/epc", "/debug/whatif", "/debug/incidents"} {
				if !listed[path] {
					t.Errorf("/debug/ index does not list %s", path)
				}
			}
			if code, _, _ := get("/debug/?format=text"); code != http.StatusOK {
				t.Errorf("/debug/?format=text = %d", code)
			}

			// One exposition, every armed source.
			_, ct, metrics := get("/metrics")
			if ct != telemetry.ContentTypeMetrics {
				t.Errorf("/metrics Content-Type %q", ct)
			}
			for source, series := range map[string]string{
				"registry":         telemetry.MetricHotCallRequests + " ",
				"EPC counters":     telemetry.MetricEPCFaults + " ",
				"flight callsites": fmt.Sprintf("flight_callsite_arrivals_total{callsite=%q", port.callsite),
				"what-if regret":   "whatif_regret_cycles_total ",
			} {
				if !strings.Contains(metrics, series) {
					t.Errorf("/metrics carries no %s series (%q)", source, series)
				}
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
			if _, _, text := get("/debug/epc?format=text"); !strings.Contains(text, "conn0(#1)") || !strings.Contains(text, "conn1(#2)") {
				t.Errorf("/debug/epc?format=text does not name both connections:\n%s", text)
			}
		})
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
