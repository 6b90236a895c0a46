//go:build !race

package porting_test

import (
	"runtime"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

// TestSimRequestAllocs pins the steady-state allocations of one simulated
// request per app and interface.  What is left is what a request hands
// away or keeps — memcached: the response packet the generator takes
// (it decodes into its own Response; and, under the whole-number average,
// the item of a first SET; the store looks keys up as the request's bytes,
// so a key is never copied to a string); lighttpd: a connection's two
// sockets with their queues, the open file and its path, the response
// head's packet; openvpn: the
// tunnel cipher's per-frame state — not the platform underneath: no edge
// call, argument list, handler context, staging buffer, packet copy or
// cache set is allocated per request.  Not built under -race, which
// changes what escapes.
func TestSimRequestAllocs(t *testing.T) {
	ceiling := map[string]float64{"memcached": 1, "lighttpd": 8, "openvpn": 5}
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

// TestSimBootFootprint pins the bytes one server boot allocates.  Every
// sweep of the repo benchmark, every Figure 10 cell and most tests boot a
// fresh platform, so this is paid as often as a few hundred requests: the
// last-level cache model is its 512 KB (one 32-bit word per way), and the
// rest — enclave code pages, EPC and kernel tables, buffers — stays under
// 150 KB; nothing is sized for a run longer than the caller asks for.
func TestSimBootFootprint(t *testing.T) {
	for _, c := range []struct {
		app     string
		boot    func()
		ceiling uint64
	}{
		{"memcached", func() { memcached.NewServer(porting.HotCalls) }, 660_000},
		{"lighttpd", func() { lighttpd.NewServer(porting.HotCalls) }, 700_000},
		{"openvpn", func() { openvpn.NewServer(porting.HotCalls) }, 670_000},
	} {
		c.boot() // one-time initialisation (EDL parse tables, crypto) is not the boot's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.boot()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > c.ceiling {
			t.Errorf("%s: one boot allocates %d bytes, want <= %d", c.app, n, c.ceiling)
		}
	}
}
