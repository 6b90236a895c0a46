//go:build !race

package porting_test

import (
	"testing"

	"hotcalls/internal/sim"
)

// TestSimRequestAllocs pins the steady-state allocations of one simulated
// request per app and interface.  What is left is the applications' own
// work — a variadic argument list per edge call, the parsed request, the
// response a generator takes away — not the platform underneath: no
// staging buffer, argument copy, packet copy or cache set is allocated per
// request.  (memcached's ceiling leaves room for the store still admitting
// new keys, two allocations a miss.)  Not built under -race, which changes
// what escapes.
func TestSimRequestAllocs(t *testing.T) {
	ceiling := map[string]float64{"memcached": 10, "lighttpd": 43, "openvpn": 13}
	for _, c := range simCells {
		serve := simCell(t, c.app, c.mode)
		var clk sim.Clock
		for i := 0; i < 256; i++ { // past the cold misses and lazy growth
			serve(&clk)
		}
		if n := testing.AllocsPerRun(200, func() { serve(&clk) }); n > ceiling[c.app] {
			t.Errorf("%s/%s: %.0f allocations per simulated request, want <= %.0f", c.app, c.mode, n, ceiling[c.app])
		}
	}
}
