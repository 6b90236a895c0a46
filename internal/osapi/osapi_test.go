package osapi

import (
	"bytes"
	"errors"
	"testing"

	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
)

func newKernel() *Kernel {
	return NewKernel(mem.New(sim.NewRNG(3)))
}

func TestSyscallCostCharged(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	k.GetPID(&clk)
	if clk.Now() != SyscallCost {
		t.Fatalf("getpid cost = %d, want %d", clk.Now(), SyscallCost)
	}
}

func TestSocketSendRecvLoopback(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	a := k.Socket(&clk)
	lfd := k.Socket(&clk)
	if err := k.Listen(&clk, lfd); err != nil {
		t.Fatal(err)
	}
	_ = a
	client, err := k.InjectConnection(lfd)
	if err != nil {
		t.Fatal(err)
	}
	server, err := k.Accept(&clk, lfd)
	if err != nil {
		t.Fatal(err)
	}
	// Client -> server.
	if err := k.Inject(server, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !k.Readable(server) {
		t.Fatal("server socket should be readable")
	}
	buf := make([]byte, 64)
	n, err := k.Recv(&clk, server, mem.PlainBase+0x100000, buf)
	if err != nil || n != 5 || !bytes.Equal(buf[:5], []byte("hello")) {
		t.Fatalf("recv = (%d, %v, %q)", n, err, buf[:n])
	}
	// Server -> client.
	if _, err := k.Send(&clk, server, mem.PlainBase+0x100000, []byte("world")); err != nil {
		t.Fatal(err)
	}
	resp, ok := k.TakeRX(client)
	if !ok || !bytes.Equal(resp, []byte("world")) {
		t.Fatalf("client got %q", resp)
	}
}

func TestRecvWouldBlock(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	fd := k.Socket(&clk)
	if _, err := k.Recv(&clk, fd, mem.PlainBase, make([]byte, 8)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestAcceptWithoutListenerFails(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	fd := k.Socket(&clk)
	if _, err := k.Accept(&clk, fd); !errors.Is(err, ErrNotListener) {
		t.Fatalf("err = %v", err)
	}
	if _, err := k.InjectConnection(fd); !errors.Is(err, ErrNotListener) {
		t.Fatalf("inject err = %v", err)
	}
}

func TestPollCountsReadiness(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	a, b := k.Socket(&clk), k.Socket(&clk)
	k.Inject(a, []byte("x"))
	if got := k.Poll(&clk, a, b); got != 1 {
		t.Fatalf("poll = %d, want 1", got)
	}
}

func TestFileReadAndSendfile(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	page := make([]byte, 20*1024)
	for i := range page {
		page[i] = byte(i)
	}
	k.WriteFS("/www/index.html", page)

	fd, err := k.Open(&clk, "/www/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if size, err := k.Fstat(&clk, fd); err != nil || size != len(page) {
		t.Fatalf("fstat = (%d, %v)", size, err)
	}

	lfd := k.Socket(&clk)
	k.Listen(&clk, lfd)
	client, _ := k.InjectConnection(lfd)
	conn, _ := k.Accept(&clk, lfd)
	fd2, _ := k.Open(&clk, "/www/index.html")
	n, err := k.Sendfile(&clk, conn, fd2)
	if err != nil || n != len(page) {
		t.Fatalf("sendfile = (%d, %v)", n, err)
	}
	got, ok := k.TakeRX(client)
	if !ok || !bytes.Equal(got, page) {
		t.Fatal("sendfile payload corrupted")
	}
	if k.TX < uint64(len(page)) {
		t.Fatal("TX counter not advanced")
	}
}

func TestOpenMissingFile(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	if _, err := k.Open(&clk, "/nope"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseReleasesFD(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	fd := k.Socket(&clk)
	if err := k.Close(&clk, fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(&clk, fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close err = %v", err)
	}
}

func TestLargeTransfersCostMoreCycles(t *testing.T) {
	k := newKernel()
	var small, large sim.Clock
	fd := k.Socket(&small)
	k.Inject(fd, make([]byte, 64))
	k.Recv(&small, fd, mem.PlainBase+0x300000, make([]byte, 64))

	fd2 := k.Socket(&large)
	k.Inject(fd2, make([]byte, 16384))
	k.Recv(&large, fd2, mem.PlainBase+0x400000, make([]byte, 16384))
	if large.Now() <= small.Now() {
		t.Fatalf("16 KB recv (%d) should cost more than 64 B recv (%d)", large.Now(), small.Now())
	}
}

func TestBadFDEverywhere(t *testing.T) {
	k := newKernel()
	var clk sim.Clock
	if _, err := k.Send(&clk, 99, 0, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Errorf("Send: %v", err)
	}
	if _, err := k.Recv(&clk, 99, 0, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Errorf("Recv: %v", err)
	}
	if _, err := k.Fstat(&clk, 99); !errors.Is(err, ErrBadFD) {
		t.Errorf("Fstat: %v", err)
	}
	if _, err := k.Sendfile(&clk, 99, 98); !errors.Is(err, ErrBadFD) {
		t.Errorf("Sendfile: %v", err)
	}
	if err := k.Shutdown(&clk, 99); !errors.Is(err, ErrBadFD) {
		t.Errorf("Shutdown: %v", err)
	}
	if err := k.Inject(99, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Errorf("Inject: %v", err)
	}
}

func TestKernelBufferRingWraps(t *testing.T) {
	// The kernel buffer allocator recycles after 1 GB; hammer it past
	// the wrap point and confirm transfers still work.
	k := newKernel()
	var clk sim.Clock
	fd := k.Socket(&clk)
	payload := make([]byte, 1<<20)
	for i := 0; i < 1100; i++ { // > 1 GB of kernel buffer churn
		k.Inject(fd, payload[:1024])
		if _, err := k.Send(&clk, fd, mem.PlainBase, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Recv(&clk, fd, mem.PlainBase, payload[:1024]); err != nil {
			t.Fatal(err)
		}
	}
}
