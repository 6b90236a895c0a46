package lighttpd

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
)

// TestPoolServerFlightCallsites checks that fabric-routed requests are
// attributed to the per-method callsites.
func TestPoolServerFlightCallsites(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	rec := flight.New(flight.Options{SampleEvery: 1})
	s.Arm(porting.Observers{Flight: rec})
	s.Start()
	defer s.Stop()

	c := s.Conn(0)
	for i := 0; i < 8; i++ {
		if _, err := c.Do("GET /index.html HTTP/1.0\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Do("HEAD /index.html HTTP/1.0\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]uint64{"http.get": 8, "http.head": 3}
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
