//go:build !race

package memcached

import (
	"bytes"
	"testing"
)

// TestPoolConnZeroAlloc pins the fabric request path's steady state at
// zero allocations: the handler works on views of the slot buffers, the
// item table is probed by byte-slice key (a miss included), a SET that
// fits its item overwrites it in place, and Wait decodes into the slot's
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
	shorter := Request{Op: OpSet, Key: "resized-key", Value: val[:ValueSize/2]}
	full := Request{Op: OpSet, Key: "resized-key", Value: val}
	if _, err := c.Do(&full); err != nil {
		t.Fatal(err)
	}
	do := func(status uint16, rs ...*Request) func() {
		return func() {
			for _, r := range rs {
				if resp, err := c.Do(r); err != nil || resp.Status != status {
					t.Fatalf("Do = (%+v, %v)", resp, err)
				}
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
		{"Do(GET)", do(StatusOK, &get)},
		{"Do(SET) of a same-length value", do(StatusOK, &set)},
		{"16-deep Submit/Wait window", window},
		{"Do(GET) of a missing key", do(StatusNotFound, &Request{Op: OpGet, Key: "missing-key"})},
		{"Do(DELETE) of a missing key", do(StatusNotFound, &Request{Op: OpDelete, Key: "missing-key"})},
		{"Do(SET) of an existing key with a shorter value, then the first length", do(StatusOK, &shorter, &full)},
	} {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.2f allocs per run, want 0", tc.name, allocs)
		}
	}
}
