package porting_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hotcalls/internal/apps/lighttpd"
	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/openvpn"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
)

// fabricPort is one fabric port as the kit sees it: the embedded Fabric,
// the port's own Start, and traffic on one connection.
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

// TestFabricKitAllArmed arms every observer the kit has on each port (a
// registry on the pool), drives real traffic on two connections at once
// (armPort), and holds the armed kit to its contract: the exposition
// declares families, each once, and each has a row in the consumer table
// (signals_test.go), which also holds what traffic must have moved.
func TestFabricKitAllArmed(t *testing.T) {
	for _, port := range fabricPorts {
		t.Run(port.name, func(t *testing.T) {
			families := typeFamilies(armPort(t, port).metrics(t))
			if len(families) == 0 {
				t.Fatal("the armed kit's exposition declares no family")
			}
			declared := map[string]bool{}
			for _, name := range families {
				if _, ok := signalTable[name]; !ok {
					t.Errorf("exposition family %s has no row in the consumer table", name)
				}
				if declared[name] {
					t.Errorf("exposition declares family %s more than once", name)
				}
				declared[name] = true
			}
		})
	}
}
