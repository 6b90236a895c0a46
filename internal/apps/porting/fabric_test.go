package porting_test

import (
	"bytes"
	"fmt"
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
	"hotcalls/internal/telemetry"
)

// fabricPort is one fabric port as the kit sees it: the embedded Fabric,
// the port's own Start (lighttpd's builds its images first), and traffic
// on one connection that pages under that connection's name only.
type fabricPort struct {
	name string
	boot func(conns int, opts core.PoolOptions) (f *porting.Fabric, start func(), drive func(conn int) error)
}

var fabricPorts = []fabricPort{
	{"memcached", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
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
	{"lighttpd", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
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
	{"openvpn", func(conns int, opts core.PoolOptions) (*porting.Fabric, func(), func(int) error) {
		s := openvpn.NewPoolServer(conns, opts)
		return &s.Fabric, s.Start, func(conn int) error {
			window := make([][]byte, 16)
			for i := range window {
				window[i] = bytes.Repeat([]byte{byte(conn), byte(i)}, openvpn.IperfPayload/2)
			}
			for i := 0; i < 4; i++ {
				if n, err := s.Conn(conn).Stream(window[i : i+1]); err != nil || n != 1 {
					return fmt.Errorf("forward %d = (%d, %v)", i, n, err)
				}
				if n, err := s.Conn(conn).Stream(window); err != nil || n != len(window) {
					return fmt.Errorf("stream %d = (%d, %v)", i, n, err)
				}
			}
			return nil
		}
	}},
}

// kitPoolOpts gives submissions patience, as the ports' own tests do.
func kitPoolOpts() core.PoolOptions {
	return core.PoolOptions{SlotsPerShard: 16, MaxResponders: 2, Timeout: 1 << 20}
}

// typeFamilies lists the family names a Prometheus exposition declares,
// one per # TYPE line, in order.
func typeFamilies(exposition string) []string {
	var names []string
	for _, line := range strings.Split(exposition, "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(decl, " ")
			names = append(names, name)
		}
	}
	return names
}

// TestFabricKitAllArmed arms every observer on each port through the one
// Arm call, drives real traffic on two connections at once (armPort), and
// holds the armed kit to its contract: every observer reads back and the
// monitor is built over the armed collectors; every family in the
// registry's exposition appears once and has a row in the consumer table
// (signals_test.go), which also holds what traffic must have moved; and
// EPC pressure is attributed to both connections by name.
func TestFabricKitAllArmed(t *testing.T) {
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			a := armPort(t, port)
			f := a.f
			if f.Monitor() == nil || f.Incidents() == nil || f.EPC() == nil || f.EPCManager() == nil {
				t.Fatal("an armed observer reads back nil")
			}
			if f.Monitor().EPCStat() != f.EPC() || f.Monitor().Flight() != f.Pool().Flight() {
				t.Fatal("the monitor was not built over the armed collectors")
			}

			// One exposition, every armed source.
			metrics := a.metrics(t)
			declared := map[string]bool{}
			for _, name := range typeFamilies(metrics) {
				if _, ok := signalTable[name]; !ok {
					t.Errorf("exposition family %s has no row in the consumer table", name)
				}
				if declared[name] {
					t.Errorf("exposition declares family %s more than once", name)
				}
				declared[name] = true
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
		})
	}
}

// TestFabricKitBundleCarriesOutliers: a port built on the kit and armed
// through Arm captures incident bundles that carry the flight recorder's
// outlier records.  The port's handler is wedged, so its submissions time
// out and fall back; the fallback-storm rule fires, and the bundle must
// hold the timed-out calls even at the recorder's production sampling
// rate, where uniform sampling would have kept none of them.
func TestFabricKitBundleCarriesOutliers(t *testing.T) {
	gate := make(chan struct{})
	f := porting.NewFabric(porting.FabricSpec{Callsites: []string{"wedge.op"}}, 1,
		[]core.PoolFunc{func(_ int, d uint64) uint64 { <-gate; return d }},
		core.PoolOptions{SlotsPerShard: 4, MaxResponders: 1, Timeout: 1024})
	f.Arm(porting.Observers{
		Registry:  telemetry.New(),
		Flight:    flight.New(flight.Options{}),
		Incidents: &incident.Options{},
	})
	f.Start()
	req := f.Pool().Requester()

	// Wedge: the responder claims the first call and blocks in the
	// handler; the rest of the window fills behind it.
	parked, err := req.SubmitV([]core.VecCall{{Data: 0}, {Data: 1}, {Data: 2}, {Data: 3}})
	if err != nil {
		t.Fatal(err)
	}
	f.Monitor().Tick() // baseline
	for i := 0; i < 100; i++ {
		_, _ = req.CallOrFallback(core.VecCall{Data: uint64(i), Site: f.Callsite(0)}, func() (uint64, error) { return 0, nil })
	}
	f.Monitor().Tick() // the storm rule fires and the capturer freezes a bundle
	close(gate)
	_ = parked.WaitAll(nil)
	f.Stop()

	bundles := f.Incidents().Bundles()
	if len(bundles) == 0 {
		t.Fatal("no bundle captured: the fallback-storm rule did not fire")
	}
	var timedOut int
	for _, v := range bundles[0].Outliers {
		if v.TimedOut && v.Name == "wedge.op" {
			timedOut++
		}
	}
	if timedOut == 0 {
		t.Fatalf("bundle %s carries %d outlier records, none a timed-out wedge.op call", bundles[0].ID, len(bundles[0].Outliers))
	}
}

// TestFabricArmOnce pins the wiring-order fix: the observers attach in
// one call, so there is no order to get wrong — and a second call, or one
// after Start, panics instead of silently attaching an observer the
// running responders never see.  Nothing is armed that Arm did not name.
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
			if f.Monitor() != nil || f.Incidents() != nil || f.EPC() != nil {
				t.Fatal("the zero Observers armed a monitor, capturer or EPC observatory")
			}
			mustPanic(t, "a second Arm", func() { f.Arm(porting.Observers{Registry: telemetry.New()}) })

			f, start, _ := port.boot(1, kitPoolOpts())
			start()
			defer f.Stop()
			mustPanic(t, "Arm after Start", func() { f.Arm(porting.Observers{}) })
		})
	}
}

// TestFabricSharedEPCUnderLoad touches an armed fabric's EPC model from
// four connections' handlers while another goroutine takes observatory
// snapshots in a loop: the one manager every responder shares, and the
// collector's flush, behind its paging lock.  The EPC holds every page
// touched, so nothing is evicted, the touch count is the touches made and
// the fault count the distinct pages.  `make test-race` runs it.
func TestFabricSharedEPCUnderLoad(t *testing.T) {
	const (
		conns    = 4
		calls    = 2000
		pages    = 2  // per call
		window   = 32 // distinct bases per connection
		capacity = 256 * epc.PageSize
	)
	var f porting.Fabric
	f = porting.NewFabric(porting.FabricSpec{Callsites: []string{"touch"}}, conns,
		[]core.PoolFunc{func(requester int, base uint64) uint64 {
			f.TouchEPC(requester, base, pages)
			return base
		}}, kitPoolOpts())
	f.Arm(porting.Observers{EPCBytes: capacity})
	f.Start()
	defer f.Stop()

	stop := make(chan struct{})
	snapshots := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				snapshots <- n
				return
			default:
			}
			f.EPC().Snapshot()
			n++
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		r := f.Pool().Requester()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < calls; i++ {
				// Connection c's pages: a window of bases, each the
				// first of pages consecutive ones, clear of the others'.
				base := uint64(c)*(window+pages) + i%window
				if _, err := r.Call(0, base); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-snapshots; n == 0 {
		t.Error("no snapshot was taken while the connections touched")
	}

	touches, faults, evictions := f.EPCManager().Stats()
	distinct := uint64(conns * (window + pages - 1))
	if touches != conns*calls*pages || faults != distinct || evictions != 0 {
		t.Fatalf("touches %d, faults %d, evictions %d; want %d, %d, 0",
			touches, faults, evictions, conns*calls*pages, distinct)
	}
	if s := f.EPC().Snapshot(); s.Faults != faults || uint64(s.ResidentPages) != distinct {
		t.Fatalf("observatory saw %d faults and %d resident pages, want %d of each", s.Faults, s.ResidentPages, distinct)
	}
}
