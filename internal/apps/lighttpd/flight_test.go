package lighttpd

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
)

// TestPoolServerFlightCallsites checks that every fabric-routed
// request, GET or HEAD, is recorded under the port's one callsite.
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

	views := rec.Records(64)
	if len(views) != 11 {
		t.Fatalf("%d records for 11 requests", len(views))
	}
	for _, v := range views {
		if v.Name != "http" {
			t.Errorf("request recorded under %q, want http", v.Name)
		}
	}
}
