package memcached

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
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
