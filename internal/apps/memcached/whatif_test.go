package memcached

import (
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/flight"
	"hotcalls/internal/monitor"
	"hotcalls/internal/telemetry"
)

// TestPoolServerWhatIf checks the port's share of the what-if wiring: the
// callsites it names are the ones the shadow router scores on a monitor
// tick.  (That /debug/whatif and the index serve the observatory is the
// kit's test, porting.TestFabricKitAllArmed.)
func TestPoolServerWhatIf(t *testing.T) {
	s := NewPoolServer(1, fastPoolOpts(2))
	s.Arm(porting.Observers{
		Registry: telemetry.New(),
		Flight:   flight.New(flight.Options{SampleEvery: 1}),
		WhatIf:   true,
		Monitor:  &monitor.Options{},
	})
	s.Start()
	defer s.Stop()

	m := s.Monitor()
	m.Tick() // baseline primes the shadow router
	for i := 0; i < 400; i++ {
		if _, err := s.Conn(0).Do(&Request{Op: OpSet, Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Conn(0).Do(&Request{Op: OpGet, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	sample := m.Tick()
	if sample.WhatIf == nil {
		t.Fatal("monitor sample carries no what-if verdict")
	}
	var sites []string
	found := false
	for _, d := range sample.WhatIf.Decisions {
		sites = append(sites, d.Site)
		if d.Site == "mc.get" || d.Site == "mc.set" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shadow router scored no per-op callsite: %v", sites)
	}
}
