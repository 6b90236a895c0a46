//go:build !race

package memcached

import (
	"bytes"
	"testing"
)

// TestPoolConnZeroAlloc pins the fabric request path's steady state at
// zero allocations: the handler works on views of the slot buffers, the
// store is looked up by byte-slice key, and Wait decodes into the slot's
// own Response.  (The race detector instruments allocation, hence the
// build tag.)
func TestPoolConnZeroAlloc(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)
	val := bytes.Repeat([]byte{0xAB}, ValueSize)
	get := Request{Op: OpGet, Key: "pinned-key"}
	set := Request{Op: OpSet, Key: "pinned-key", Value: val}
	if _, err := c.Do(&set); err != nil {
		t.Fatal(err)
	}
	do := func(r *Request) func() {
		return func() {
			if resp, err := c.Do(r); err != nil || resp.Status != StatusOK {
				t.Fatalf("Do = (%+v, %v)", resp, err)
			}
		}
	}
	var pending [connWindow]PendingResponse
	window := func() {
		for i := range pending {
			var err error
			if pending[i], err = c.Submit(&get); err != nil {
				t.Fatal(err)
			}
		}
		for i := range pending {
			if resp, err := pending[i].Wait(); err != nil || len(resp.Value) != ValueSize {
				t.Fatalf("Wait = (%+v, %v)", resp, err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Do(GET)", do(&get)},
		{"Do(SET) of a same-length value", do(&set)},
		{"16-deep Submit/Wait window", window},
	} {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.2f allocs per run, want 0", tc.name, allocs)
		}
	}
}
