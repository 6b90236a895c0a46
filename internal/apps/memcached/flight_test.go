package memcached

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
	"hotcalls/internal/telemetry"
)

// TestPoolServerFlightCallsites checks that fabric-routed operations
// are attributed to their per-op callsites.
func TestPoolServerFlightCallsites(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	rec := flight.New(flight.Options{SampleEvery: 1})
	s.Arm(porting.Observers{Flight: rec})
	s.Start()
	defer s.Stop()

	c := s.Conn(0)
	val := []byte("flightval")
	for i := 0; i < 6; i++ {
		if _, err := c.Do(&Request{Op: OpSet, Key: "fk", Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Do(&Request{Op: OpGet, Key: "fk"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Do(&Request{Op: OpDelete, Key: "fk"}); err != nil {
		t.Fatal(err)
	}

	want := map[string]uint64{"mc.get": 10, "mc.set": 6, "mc.delete": 1}
	for _, cs := range rec.Stats() {
		if n, ok := want[cs.Name]; ok {
			if cs.Arrivals != n {
				t.Errorf("%s arrivals = %d, want %d", cs.Name, cs.Arrivals, n)
			}
			delete(want, cs.Name)
		}
	}
	for name := range want {
		t.Errorf("callsite %q missing from stats table", name)
	}
}

// TestPoolServerDebugMuxFlight checks the partly armed surface: with a
// registry and a recorder and nothing else named, DebugMux arms a default
// monitor and capturer and mounts /debug/flight — and no endpoint for a
// collector that was not armed.
func TestPoolServerDebugMuxFlight(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Arm(porting.Observers{Registry: telemetry.New(), Flight: flight.New(flight.Options{SampleEvery: 1})})
	s.Start()
	defer s.Stop()
	if _, err := s.Conn(0).Do(&Request{Op: OpSet, Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.DebugMux())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/health", "/debug/monitor", "/debug/flight", "/debug/incidents"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/epc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/epc status = %d, want 404: its collector was not armed", resp.StatusCode)
	}
}
