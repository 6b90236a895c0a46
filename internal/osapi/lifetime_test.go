package osapi

import (
	"bytes"
	"testing"

	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
)

// liveBytes sums the packet bytes the kernel still references: queued on
// any socket (including the slack behind each queue's head) or parked on
// the free list.
func liveBytes(k *Kernel) (n int) {
	for _, s := range k.sockets {
		for _, p := range s.rx.buf[:cap(s.rx.buf)] {
			n += cap(p.data)
		}
	}
	for _, b := range k.bufFree {
		n += cap(b)
	}
	return n
}

// TestConnectionChurnLeavesNothingBehind plays the kernel side of ten
// thousand lighttpd requests — a fresh injected connection each, request
// in, header and sendfile body out, server close, generator drain — with a
// window of `outstanding` responses left undrained, and requires the
// socket table and the packet bytes the kernel holds to track that window,
// not the request count.
func TestConnectionChurnLeavesNothingBehind(t *testing.T) {
	const requests, outstanding = 10_000, 4
	k := newKernel()
	var clk sim.Clock
	page := bytes.Repeat([]byte("x"), 20*1024)
	k.WriteFS("/index.html", page)
	lfd := k.Socket(&clk)
	if err := k.Listen(&clk, lfd); err != nil {
		t.Fatal(err)
	}
	baseline := len(k.sockets)
	req := []byte("GET / HTTP/1.0\r\nHost: localhost\r\n\r\n")
	head := []byte("HTTP/1.0 200 OK\r\nContent-Length: 20480\r\n\r\n")
	user := make([]byte, 2048)
	var undrained []int
	var peakSockets, peakBytes int
	for i := 0; i < requests; i++ {
		client, err := k.InjectConnection(lfd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Send(&clk, "client_tx", client, 0, req); err != nil {
			t.Fatal(err)
		}
		conn, err := k.Accept(&clk, lfd)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := k.Recv(&clk, "read", conn, mem.PlainBase, user); err != nil || !bytes.Equal(user[:n], req) {
			t.Fatalf("request %d: recv = (%d, %v)", i, n, err)
		}
		fd, err := k.Open(&clk, "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Send(&clk, "writev", conn, mem.PlainBase, head); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Sendfile(&clk, conn, fd); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(&clk, conn); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(&clk, fd); err != nil {
			t.Fatal(err)
		}
		undrained = append(undrained, client)
		if len(undrained) > outstanding {
			c := undrained[0]
			undrained = undrained[1:]
			if h, ok := k.TakeRX(c); !ok || !bytes.Equal(h, head) {
				t.Fatalf("request %d: head = %q", i, h)
			}
			if b, ok := k.TakeRX(c); !ok || !bytes.Equal(b, page) {
				t.Fatalf("request %d: body of %d bytes", i, len(b))
			}
			if _, ok := k.TakeRX(c); ok {
				t.Fatalf("request %d: a third packet", i)
			}
		}
		peakSockets = max(peakSockets, len(k.sockets))
		peakBytes = max(peakBytes, liveBytes(k))
	}
	// Each undrained response pins its client socket; a drained one is gone
	// (its server end was closed by the server itself).
	if want := baseline + outstanding + 1; peakSockets > want {
		t.Errorf("socket table peaked at %d entries over %d requests, want <= %d", peakSockets, requests, want)
	}
	if len(k.files) != 0 {
		t.Errorf("%d files left open", len(k.files))
	}
	// Per undrained response: one header copy and the page-cache body
	// (shared, but counted per packet here); plus the recycled request
	// buffer.
	if want := (outstanding+1)*(len(page)+2*len(head)) + 4096; peakBytes > want {
		t.Errorf("kernel held %d packet bytes at peak over %d requests, want <= %d", peakBytes, requests, want)
	}
}

// TestFifoPopReleasesEntry pins the queue's two properties: a popped slot
// no longer references its packet, and steady push/pop traffic reuses the
// backing array instead of regrowing it.
func TestFifoPopReleasesEntry(t *testing.T) {
	var q fifo[packet]
	for i := 0; i < 3; i++ {
		q.push(packet{data: make([]byte, 8)})
	}
	q.pop()
	if q.buf[0].data != nil {
		t.Fatal("popped entry still references its bytes")
	}
	for i := 0; i < 1000; i++ { // never drains: two stay queued
		q.push(packet{data: make([]byte, 8)})
		q.pop()
	}
	if q.len() != 2 || cap(q.buf) > 8 {
		t.Fatalf("len %d, cap %d after steady traffic: the queue regrew", q.len(), cap(q.buf))
	}
	for _, p := range q.buf[:q.head] {
		if p.data != nil {
			t.Fatal("entry behind the head still references its bytes")
		}
	}
}

// TestRecvRecyclesPacketBytes checks the recycling path end to end: the
// bytes of a received packet back the next injected one, and a packet
// taken by the generator is never reused under it.
func TestRecvRecyclesPacketBytes(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	lfd := k.Socket(&clk)
	k.Listen(&clk, lfd)
	client, _ := k.InjectConnection(lfd)
	conn, _ := k.Accept(&clk, lfd)
	user := make([]byte, 64)

	k.Inject(conn, []byte("first request"))
	if _, err := k.Recv(&clk, "read", conn, mem.PlainBase, user); err != nil {
		t.Fatal(err)
	}
	if len(k.bufFree) != 1 {
		t.Fatalf("free list holds %d buffers after one Recv, want 1", len(k.bufFree))
	}
	k.Send(&clk, "sendmsg", conn, mem.PlainBase, []byte("response one"))
	if len(k.bufFree) != 0 {
		t.Fatal("Send did not reuse the received packet's bytes")
	}
	taken, _ := k.TakeRX(client)
	k.Inject(conn, []byte("second request"))
	k.Send(&clk, "sendmsg", conn, mem.PlainBase, []byte("response two"))
	if string(taken) != "response one" {
		t.Fatalf("a packet the generator holds was overwritten: %q", taken)
	}
}

// TestFreeListIsBounded sends ever-larger packets, none of which fits a
// recycled buffer: each is allocated fresh and parked on receipt, and the
// free list must stop growing.
func TestFreeListIsBounded(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	fd := k.Socket(&clk)
	user := make([]byte, 4*maxFreeBufs)
	for size := 1; size <= len(user); size++ {
		k.Inject(fd, user[:size])
		if _, err := k.Recv(&clk, "read", fd, mem.PlainBase, user); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.bufFree) > maxFreeBufs {
		t.Fatalf("free list holds %d buffers, want <= %d", len(k.bufFree), maxFreeBufs)
	}
}
