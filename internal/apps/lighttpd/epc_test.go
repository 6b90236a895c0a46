package lighttpd

import (
	"fmt"
	"strings"
	"testing"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/epc"
)

// TestPoolServerEPCAttribution checks what the port itself says about
// paging: a served document touches its body's page span, placed by its
// path's hash, and a miss still touches the one page the looked-up path
// hashes to.  (That the armed model reaches the observatory
// is the kit's test, porting.TestFabricKitAllArmed.)
func TestPoolServerEPCAttribution(t *testing.T) {
	s := NewPoolServer(2, testPoolOpts(2))
	s.Arm(porting.Observers{EPCBytes: 256 * epc.PageSize})
	s.Start()
	defer s.Stop()

	for conn := 0; conn < 2; conn++ {
		c := s.Conn(conn)
		resp, err := c.Do(getIndex)
		if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.0 200") {
			t.Fatalf("GET /index.html = (%q, %v)", resp, err)
		}
		resp, err = c.Do(fmt.Sprintf("GET /missing-%d.html HTTP/1.0\r\nHost: sim\r\n\r\n", conn))
		if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.0 404") {
			t.Fatalf("GET missing = (%q, %v)", resp, err)
		}
	}

	// The 20 KB index spans 5 pages plus the miss's single page — 6
	// touches per connection.  The index pages are shared, so only the
	// first connection faults them in; the second still shows its
	// activity in sampled touches and faults its own unique miss page.
	wantTouches := uint64(PageSize/epc.PageSize + 1)
	if touches, _, _ := s.EPCManager().Stats(); touches != 2*wantTouches {
		t.Errorf("touches = %d, want %d", touches, 2*wantTouches)
	}
	snap := s.EPC().Snapshot()
	if snap == nil || len(snap.Owners) != 2 {
		t.Fatalf("owner table: %+v", snap)
	}
	for _, o := range snap.Owners {
		if o.SampledTouches < wantTouches {
			t.Errorf("owner %d touches = %d, want >= %d", o.Owner, o.SampledTouches, wantTouches)
		}
		if o.Faults == 0 {
			t.Errorf("owner %d faulted nothing", o.Owner)
		}
	}
}
