package memcached

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
)

// TestPoolServerFlightCallsites checks that every fabric-routed
// operation, whatever its opcode, is recorded under the port's one
// callsite.
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

	views := rec.Records(64)
	if len(views) != 17 {
		t.Fatalf("%d records for 17 requests", len(views))
	}
	for _, v := range views {
		if v.Name != "mc" {
			t.Errorf("request recorded under %q, want mc", v.Name)
		}
	}
}
