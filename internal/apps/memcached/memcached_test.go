package memcached

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hotcalls/internal/apps/porting"
	"hotcalls/internal/sdk"
	"hotcalls/internal/sim"
)

func TestProtocolRoundTripSet(t *testing.T) {
	buf := make([]byte, bufCap)
	val := bytes.Repeat([]byte{0xab}, 100)
	n, err := EncodeRequest(buf, &Request{Op: OpSet, Key: "k1", Value: val, Opaque: 42})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(buf, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if req.op != OpSet || string(req.key) != "k1" || !bytes.Equal(req.value, val) || req.opaque != 42 {
		t.Fatalf("req = %+v", req)
	}
}

func TestProtocolRoundTripGet(t *testing.T) {
	buf := make([]byte, bufCap)
	n, err := EncodeRequest(buf, &Request{Op: OpGet, Key: "some-key", Opaque: 7})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(buf, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if req.op != OpGet || string(req.key) != "some-key" || len(req.value) != 0 {
		t.Fatalf("req = %+v", req)
	}
}

func TestProtocolResponseRoundTrip(t *testing.T) {
	buf := make([]byte, bufCap)
	val := bytes.Repeat([]byte{3}, ValueSize)
	n, err := EncodeResponse(buf, &Response{Op: OpGet, Status: StatusOK, Value: val, Opaque: 9})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || !bytes.Equal(resp.Value, val) || resp.Opaque != 9 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	if _, err := decodeRequest([]byte{1, 2, 3}, 3); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("err = %v", err)
	}
	bad := make([]byte, HeaderSize)
	bad[0] = 0x55
	if _, err := decodeRequest(bad, HeaderSize); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	bad[0] = MagicRequest
	bad[1] = 0x99
	if _, err := decodeRequest(bad, HeaderSize); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtocolRoundTripProperty(t *testing.T) {
	buf := make([]byte, 1<<16)
	f := func(key []byte, value []byte, opaque uint32, isSet bool) bool {
		if len(key) > 250 || len(key) == 0 || len(value) > 8192 {
			return true
		}
		req := Request{Op: OpGet, Key: string(key), Opaque: opaque}
		if isSet {
			req.Op = OpSet
			req.Value = value
		}
		n, err := EncodeRequest(buf, &req)
		if err != nil {
			return false
		}
		got, err := decodeRequest(buf, uint64(n))
		if err != nil {
			return false
		}
		if got.op != req.Op || string(got.key) != req.Key || got.opaque != opaque {
			return false
		}
		return !isSet || bytes.Equal(got.value, req.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestServerSetThenGet(t *testing.T) {
	s := NewServer(porting.Native)
	w := NewWorkload(s, 1)
	var clk sim.Clock

	// Hand-craft a SET then a GET of the same key.
	pkt := make([]byte, bufCap)
	val := bytes.Repeat([]byte{0x42}, ValueSize)
	n, _ := EncodeRequest(pkt, &Request{Op: OpSet, Key: "the-key", Value: val, Opaque: 1})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	if resp, err := w.DrainResponse(); err != nil || resp.Status != StatusOK {
		t.Fatalf("set response: %+v, %v", resp, err)
	}

	n, _ = EncodeRequest(pkt, &Request{Op: OpGet, Key: "the-key", Opaque: 2})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	resp, err := w.DrainResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || !bytes.Equal(resp.Value, val) {
		t.Fatalf("get returned status %d, %d bytes", resp.Status, len(resp.Value))
	}
}

func TestServerGetMissing(t *testing.T) {
	s := NewServer(porting.Native)
	w := NewWorkload(s, 1)
	var clk sim.Clock
	pkt := make([]byte, bufCap)
	n, _ := EncodeRequest(pkt, &Request{Op: OpGet, Key: "absent", Opaque: 3})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	resp, err := w.DrainResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNotFound {
		t.Fatalf("status = %d, want NotFound", resp.Status)
	}
}

func TestServerWorksInAllModes(t *testing.T) {
	for _, mode := range porting.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewServer(mode)
			w := NewWorkload(s, 5)
			var clk sim.Clock
			for i := 0; i < 20; i++ {
				w.InjectNext()
				s.ServeOne(&clk)
				if _, err := w.DrainResponse(); err != nil {
					t.Fatal(err)
				}
			}
			c := s.App.Counters()
			if c["ocall_read"] != 20 || c["ocall_sendmsg"] != 20 || c["ecall_run_enclave_function"] != 20 {
				t.Fatalf("counters = %v", c)
			}
		})
	}
}

func TestTable2CallMix(t *testing.T) {
	// Table 2: read, sendmsg, and RunEnclaveFunction are each called at
	// the same rate (66.5k/s each at 66.5k requests/s) — exactly one of
	// each per request.
	s := NewServer(porting.SGX)
	w := NewWorkload(s, 9)
	var clk sim.Clock
	s.App.ResetCounters()
	const n = 500
	for i := 0; i < n; i++ {
		w.InjectNext()
		s.ServeOne(&clk)
		w.DrainResponse()
	}
	c := s.App.Counters()
	for _, name := range []string{"ocall_read", "ocall_sendmsg", "ecall_run_enclave_function"} {
		if c[name] != n {
			t.Errorf("%s = %d, want %d", name, c[name], n)
		}
	}
}

func TestWorkloadMixIsBalanced(t *testing.T) {
	s := NewServer(porting.Native)
	w := NewWorkload(s, 11)
	var clk sim.Clock
	var sets, gets int
	for i := 0; i < 2000; i++ {
		switch w.Step(&clk).Op {
		case OpSet:
			sets++
		case OpGet:
			gets++
		}
	}
	ratio := float64(sets) / float64(gets)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("SET:GET = %d:%d, want ~1:1", sets, gets)
	}
}

// TestNativeThroughputMatch pins the calibration point: native memcached
// served 316,500 requests/second in the paper (Section 6.2).
func TestNativeThroughputMatch(t *testing.T) {
	m := Run(porting.Native, 0.05)
	t.Logf("native: %.0f req/s, %.2f ms avg latency (paper: 316,500 req/s, 0.63 ms)",
		m.Throughput, m.AvgLatency*1e3)
	if m.Throughput < 316500*0.95 || m.Throughput > 316500*1.05 {
		t.Errorf("native throughput = %.0f, want 316,500 +/- 5%%", m.Throughput)
	}
	if m.AvgLatency < 0.55e-3 || m.AvgLatency > 0.72e-3 {
		t.Errorf("native latency = %.2f ms, want ~0.63 ms", m.AvgLatency*1e3)
	}
}

// TestSGXThroughputMatch pins the second calibration point: the
// unoptimized SGX port dropped to 66,500 requests/second (-79%).
func TestSGXThroughputMatch(t *testing.T) {
	m := Run(porting.SGX, 0.05)
	t.Logf("sgx: %.0f req/s, %.2f ms (paper: 66,500 req/s, 2.97 ms)", m.Throughput, m.AvgLatency*1e3)
	if m.Throughput < 66500*0.88 || m.Throughput > 66500*1.12 {
		t.Errorf("sgx throughput = %.0f, want 66,500 +/- 12%%", m.Throughput)
	}
}

// TestHotCallsPrediction checks the *predicted* points: HotCalls lifted
// throughput to 162,000 req/s and NRZ to 185,000 req/s.  These were not
// calibrated (see DESIGN.md section 4); a wider band is allowed.
func TestHotCallsPrediction(t *testing.T) {
	hc := Run(porting.HotCalls, 0.05)
	nrz := Run(porting.HotCallsNRZ, 0.05)
	t.Logf("hotcalls: %.0f req/s (paper: 162,000); +NRZ: %.0f req/s (paper: 185,000)",
		hc.Throughput, nrz.Throughput)
	if hc.Throughput < 162000*0.8 || hc.Throughput > 162000*1.2 {
		t.Errorf("hotcalls throughput = %.0f, want 162,000 +/- 20%%", hc.Throughput)
	}
	if nrz.Throughput <= hc.Throughput {
		t.Errorf("NRZ (%.0f) must beat plain HotCalls (%.0f)", nrz.Throughput, hc.Throughput)
	}
	if nrz.Throughput < 185000*0.8 || nrz.Throughput > 185000*1.2 {
		t.Errorf("nrz throughput = %.0f, want 185,000 +/- 20%%", nrz.Throughput)
	}
}

func TestServerDelete(t *testing.T) {
	s := NewServer(porting.SGX)
	w := NewWorkload(s, 1)
	var clk sim.Clock
	pkt := make([]byte, bufCap)

	n, _ := EncodeRequest(pkt, &Request{Op: OpSet, Key: "gone", Value: []byte("v"), Opaque: 1})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	w.DrainResponse()

	n, _ = EncodeRequest(pkt, &Request{Op: OpDelete, Key: "gone", Opaque: 2})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	if resp, err := w.DrainResponse(); err != nil || resp.Status != StatusOK {
		t.Fatalf("delete: %+v, %v", resp, err)
	}
	if n := s.Store.items.n; n != 0 {
		t.Fatalf("store len = %d after delete", n)
	}
	// Deleting again misses.
	n, _ = EncodeRequest(pkt, &Request{Op: OpDelete, Key: "gone", Opaque: 3})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	if resp, err := w.DrainResponse(); err != nil || resp.Status != StatusNotFound {
		t.Fatalf("double delete: %+v, %v", resp, err)
	}
	// And the value is really gone.
	n, _ = EncodeRequest(pkt, &Request{Op: OpGet, Key: "gone", Opaque: 4})
	s.App.Kernel.Inject(s.connFD, pkt[:n])
	s.ServeOne(&clk)
	if resp, _ := w.DrainResponse(); resp.Status != StatusNotFound {
		t.Fatalf("get after delete: %+v", resp)
	}
}

// TestServerDropsUndecodablePackets sends packets the binary protocol
// rejects: each is dropped without a response, and the server goes on
// answering the next valid request.
func TestServerDropsUndecodablePackets(t *testing.T) {
	get := make([]byte, bufCap)
	n, _ := EncodeRequest(get, &Request{Op: OpGet, Key: "k"})
	get = get[:n]
	badMagic, badOp, overlong := bytes.Clone(get), bytes.Clone(get), bytes.Clone(get)
	badMagic[0] = 0xff
	badOp[1] = 0x7f
	overlong[11] = 0xff // a body length past the packet's end
	hostile := [][]byte{[]byte("garbage"), badMagic, badOp, overlong}
	for _, mode := range porting.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewServer(mode)
			w := NewWorkload(s, 3)
			var clk sim.Clock
			for i, pkt := range hostile {
				if err := s.App.Kernel.Inject(s.connFD, pkt); err != nil {
					t.Fatal(err)
				}
				s.ServeOne(&clk)
				if resp, err := w.DrainResponse(); err == nil {
					t.Fatalf("packet %d: answered %+v, want dropped", i, resp)
				}
			}
			if resp := w.Step(&clk); resp.Status != StatusOK && resp.Status != StatusNotFound {
				t.Fatalf("after hostile packets: status %d", resp.Status)
			}
		})
	}
}

// TestServerDropsHostileReceiveCount rebinds ocall_read to report more
// bytes than the enclave buffer it was handed: the request is dropped
// without a response, as an undecodable packet is, in both edge-call
// modes.
func TestServerDropsHostileReceiveCount(t *testing.T) {
	for _, count := range []uint64{bufCap + 1, 1 << 20} {
		for _, mode := range []porting.Mode{porting.SGX, porting.HotCalls} {
			t.Run(fmt.Sprintf("%s/%d", mode, count), func(t *testing.T) {
				s := NewServer(mode)
				w := NewWorkload(s, 3)
				s.App.RT.MustBindOCall("ocall_read", func(*sdk.Ctx, []sdk.Arg) uint64 { return count })
				var clk sim.Clock
				w.InjectNext()
				s.ServeOne(&clk)
				if resp, err := w.DrainResponse(); err == nil {
					t.Fatalf("answered %+v, want dropped", resp)
				}
			})
		}
	}
}
