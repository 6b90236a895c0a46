package bench

import (
	"fmt"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sim"
)

// runBreakdown attributes each application's cycles to edge calls, TLB
// refills, application phases, and residual memory/kernel work — the
// inside view of Table 2's core-time estimate (the paper computes 42%,
// 57%, 56% of core time spent facilitating calls for memcached, openVPN,
// lighttpd from call counts; here the same shares fall out of direct
// attribution) and of why HotCalls reclaim those cycles.
func runBreakdown() *Report {
	r := &Report{ID: "breakdown", Title: "Cycle attribution per request (profiler view of Table 2's core-time column)"}
	// "edge-calls" is the full interface envelope: call machinery,
	// marshalling, and the kernel service inside the landing functions —
	// a superset of the paper's warm-call-only estimate, so the SGX
	// shares sit a few points above Table 2's 42/57/56%.
	tbl := &table{header: []string{"app", "mode", "edge-calls", "tlb-refills", "app phases", "total cyc/req"}}

	paperCallShare := map[string]float64{"memcached": 42, "openvpn": 57, "lighttpd": 56}

	type runner struct {
		name  string
		drive func(mode porting.Mode) (*porting.Profile, uint64, uint64) // profile, totalCycles, requests
	}
	runners := []runner{
		{"memcached", func(mode porting.Mode) (*porting.Profile, uint64, uint64) {
			s := memcached.NewServer(mode)
			prof := s.App.EnableProfile()
			w := memcached.NewWorkload(s, seedFor(17))
			var clk sim.Clock
			const n = 2000
			for i := 0; i < n; i++ {
				w.Step(&clk)
			}
			return prof, clk.Now(), n
		}},
		{"openvpn", func(mode porting.Mode) (*porting.Profile, uint64, uint64) {
			s := openvpn.NewServer(mode)
			prof := s.App.EnableProfile()
			seal := openvpn.SessionCipher()
			payload := make([]byte, openvpn.IperfPayload)
			var clk sim.Clock
			const n = 1500
			for i := 0; i < n; i++ {
				s.ServePacket(&clk, seal, payload, false)
			}
			return prof, clk.Now(), n
		}},
		{"lighttpd", func(mode porting.Mode) (*porting.Profile, uint64, uint64) {
			s := lighttpd.NewServer(mode)
			prof := s.App.EnableProfile()
			var clk sim.Clock
			const n = 800
			for i := 0; i < n; i++ {
				s.Fetch(&clk, "/")
			}
			return prof, clk.Now(), n
		}},
	}

	for _, rn := range runners {
		for _, mode := range []porting.Mode{porting.SGX, porting.HotCallsNRZ} {
			prof, total, n := rn.drive(mode)
			r.Values = append(r.Values, Value{
				Name: rn.name + " " + mode.String() + " cycles/request",
				Got:  float64(total) / float64(n),
				Unit: "cycles",
			})
			t := prof.Totals()
			app := t[porting.CatAppWork] + t[porting.CatDataStore] + t[porting.CatCrypto]
			pctOf := func(c uint64) string { return fmt.Sprintf("%.1f%%", float64(c)/float64(total)*100) }
			tbl.add(rn.name, mode.String(),
				pctOf(t[porting.CatEdgeCalls]), pctOf(t[porting.CatTLB]), pctOf(app),
				f0(float64(total)/float64(n)))
			if mode == porting.SGX {
				share := float64(t[porting.CatEdgeCalls]) / float64(total) * 100
				r.Values = append(r.Values, Value{
					Name:  rn.name + " sgx edge-call share",
					Got:   share,
					Paper: paperCallShare[rn.name],
					Unit:  "%",
				})
			} else {
				share := float64(t[porting.CatEdgeCalls]) / float64(total) * 100
				r.Values = append(r.Values, Value{
					Name: rn.name + " hotcalls edge-call share", Got: share, Unit: "%",
				})
			}
		}
	}
	r.Table = tbl.String()
	return r
}

func init() {
	register(Experiment{ID: "breakdown", Title: "Cycle attribution (profiler)", Run: runBreakdown})
}
