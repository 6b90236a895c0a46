package memcached

import (
	"bytes"
	"fmt"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/epc"
)

// TestPoolServerEPCAttribution checks what the port itself says about
// paging: a request's footprint is the value a GET returned or a SET
// stored, at least one page, placed by its key's hash.  (That the armed
// model reaches the registry, the monitor and /debug/epc is the kit's
// test, porting.TestFabricKitAllArmed.)
func TestPoolServerEPCAttribution(t *testing.T) {
	s := NewPoolServer(1, testPoolOpts(2))
	s.Arm(porting.Observers{EPCBytes: 256 * epc.PageSize})
	s.Start()
	defer s.Stop()

	c := s.Conn(0)
	val := bytes.Repeat([]byte{0xAB}, ValueSize)
	const keys = 8
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key%d", i)
		if resp, err := c.Do(&Request{Op: OpSet, Key: key, Value: val}); err != nil || resp.Status != StatusOK {
			t.Fatalf("SET = (%+v, %v)", resp, err)
		}
		if resp, err := c.Do(&Request{Op: OpGet, Key: key}); err != nil || resp.Status != StatusOK {
			t.Fatalf("GET = (%+v, %v)", resp, err)
		}
	}
	// A miss and a delete carry no value and still touch the key's page.
	if resp, err := c.Do(&Request{Op: OpGet, Key: "absent"}); err != nil || resp.Status != StatusNotFound {
		t.Fatalf("GET absent = (%+v, %v)", resp, err)
	}
	if resp, err := c.Do(&Request{Op: OpDelete, Key: "key0"}); err != nil || resp.Status != StatusOK {
		t.Fatalf("DELETE = (%+v, %v)", resp, err)
	}

	// A 2 KB value fits one page: one touch per request, and a key's SET
	// and GET land on the same page, so faults count distinct keys.
	touches, faults, _ := s.EPCManager().Stats()
	if want := uint64(2*keys + 2); touches != want {
		t.Errorf("touches = %d, want %d (one page per request)", touches, want)
	}
	if faults == 0 || faults > keys+1 {
		t.Errorf("faults = %d, want one per distinct key (at most %d)", faults, keys+1)
	}
}
