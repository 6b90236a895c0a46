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
	return core.PoolOptions{MaxResponders: 2, Timeout: 1 << 20}
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
// holds the armed kit to its contract: every observer reads back; every
// family in the registry's exposition appears once and has a row in the
// consumer table (signals_test.go), which also holds what traffic must
// have moved; and EPC pressure is attributed to both connections, each
// under its own owner.
func TestFabricKitAllArmed(t *testing.T) {
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			a := armPort(t, port)
			f := a.f
			if f.EPC() == nil || f.EPCManager() == nil {
				t.Fatal("an armed observer reads back nil")
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
			if _, faults, _ := f.EPCManager().Stats(); faults == 0 || f.EPC().Snapshot().Faults != faults {
				t.Errorf("manager and observatory disagree on %d EPC faults", faults)
			}

			// Both connections paged, each under its own owner (i+1).
			owners := map[epc.OwnerID]uint64{}
			for _, o := range f.EPC().Snapshot().Owners {
				owners[o.Owner] = o.Faults
			}
			if len(owners) != 2 || owners[1] == 0 || owners[2] == 0 {
				t.Errorf("per-owner EPC faults = %v, want owners 1 and 2 both paging", owners)
			}
		})
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
			if f.EPC() != nil || f.EPCManager() != nil {
				t.Fatal("the zero Observers armed an EPC model or observatory")
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
	f = porting.NewFabric("touch", conns,
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
