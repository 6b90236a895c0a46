//go:build !race

package lighttpd

import (
	"bytes"
	"testing"

	"hotcalls/internal/apps/porting"
)

// TestPoolConnZeroAlloc pins the fabric request path's steady state at
// zero allocations: the handler scans the slot buffer in place and
// answers with a reference, and Wait decodes it into a view of an image
// built at Start.  (The race detector instruments allocation, hence the
// build tag.)
func TestPoolConnZeroAlloc(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	do := func(raw, status string) func() {
		return func() {
			if resp, err := c.Do(raw); err != nil || !bytes.HasPrefix(resp, []byte(status)) {
				t.Fatalf("Do(%.30q) = (%.40q, %v)", raw, resp, err)
			}
		}
	}
	var pending [porting.Window]PendingResponse
	window := func() {
		for i := range pending {
			var err error
			if pending[i], err = c.Submit(getIndex); err != nil {
				t.Fatal(err)
			}
		}
		for i := range pending {
			if resp, err := pending[i].Wait(); err != nil || len(resp) < PageSize {
				t.Fatalf("Wait = (%d bytes, %v)", len(resp), err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Do(GET)", do(getIndex, "HTTP/1.0 200")},
		{"Do(HEAD)", do("HEAD /index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 200")},
		{"Do(GET) of a missing path", do("GET /missing HTTP/1.0\r\n\r\n", "HTTP/1.0 404")},
		{"16-deep Submit/Wait window", window},
	} {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.2f allocs per run, want 0", tc.name, allocs)
		}
	}
}
