// Package osapi is the untrusted operating-system substrate the
// applications' out-calls land on: an in-memory kernel with sockets, a
// virtual file system, readiness polling, time, and the transfer costs of
// moving data across the user/kernel boundary.
//
// Every system call charges the 150-cycle user/kernel transition the paper
// uses as its baseline ("[45] estimates a transfer to the OS and back in
// 150 cycles") — which is exactly what makes an 8,300-cycle ocall a
// 54-113x degradation.
package osapi

import (
	"errors"
	"fmt"

	"hotcalls/internal/mem"
	"hotcalls/internal/sim"
)

// SyscallCost is the user/kernel round trip (FlexSC, cited as [45]).
const SyscallCost = 150

// HypercallCost is the KVM hypercall baseline the paper quotes for
// comparison (Dall et al., cited as [15]).
const HypercallCost = 1300

// Kernel address-space landmarks: socket and page-cache buffers live in
// plaintext kernel memory.
const (
	kernBufBase = mem.PlainBase + 0x8000_0000
	kernBufSpan = 1 << 30
)

// Errors returned by the kernel.
var (
	ErrBadFD       = errors.New("osapi: bad file descriptor")
	ErrWouldBlock  = errors.New("osapi: operation would block")
	ErrNotListener = errors.New("osapi: not a listening socket")
	ErrNoSuchFile  = errors.New("osapi: no such file")
)

// packet is one queued datagram or stream chunk.  Its bytes are read-only
// from the moment it is queued: a Sendfile packet aliases the page cache,
// and TakeRX hands the slice itself to the generator.
type packet struct {
	data  []byte
	addr  uint64 // kernel buffer address backing this packet
	owned bool   // data came from bufGet: Recv returns it with bufPut
}

// fifo is a queue popped by head index, so a pop never reslices the
// backing array away and a vacated entry is cleared (no popped packet
// stays reachable); the array is reused once the queue drains or, when a
// push finds it full, compacted.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

type socket struct {
	fd       int
	rx       fifo[packet] // packets waiting to be received
	accepted fifo[int]    // pending connections on a listener
	listener bool
	peer     int // fd of the connected peer, -1 if none

	// remote marks the generator's end of an injected connection.  No
	// simulated process holds its descriptor, so nothing will ever close
	// it: the kernel reaps it once the peer has closed and rx is drained.
	remote, peerClosed bool
}

type file struct {
	name string
	data []byte
	addr uint64 // page-cache address
}

// Kernel is the simulated operating system for one machine.  It is not
// safe for concurrent use; application simulations are single-threaded.
type Kernel struct {
	Mem *mem.System

	sockets map[int]*socket
	files   map[int]*file
	fs      map[string][]byte
	fsAddr  map[string]uint64
	nextFD  int
	bufNext uint64
	pid     int

	// TX is the total payload bytes accepted by Send/Sendto/Writev —
	// the iperf-style throughput counter.
	TX uint64

	// bufFree holds the byte backing of received packets for the next
	// Inject or Send to reuse.
	bufFree [][]byte
}

// NewKernel returns a kernel over the given memory system.
func NewKernel(m *mem.System) *Kernel {
	return &Kernel{
		Mem:     m,
		sockets: make(map[int]*socket),
		files:   make(map[int]*file),
		fs:      make(map[string][]byte),
		fsAddr:  make(map[string]uint64),
		nextFD:  3,
		bufNext: kernBufBase,
		pid:     4242,
	}
}

func (k *Kernel) kalloc(size uint64) uint64 {
	addr := k.bufNext
	k.bufNext += (size + 63) / 64 * 64
	if k.bufNext > kernBufBase+kernBufSpan {
		k.bufNext = kernBufBase // ring around: kernel buffers recycle
		addr = k.bufNext
		k.bufNext += (size + 63) / 64 * 64
	}
	return addr
}

// maxFreeBufs bounds the free list: steady traffic parks one or two
// buffers, and a sender of ever-larger packets (none fits, each is
// allocated fresh and parked on receipt) must not grow it without limit.
const maxFreeBufs = 32

// bufGet returns a kernel-owned copy of data, in the smallest recycled
// buffer that holds it (best fit, so a 40-byte request does not use up the
// 2 KB buffer the next response needs).
func (k *Kernel) bufGet(data []byte) []byte {
	best := -1
	for i, b := range k.bufFree {
		if cap(b) >= len(data) && (best < 0 || cap(b) < cap(k.bufFree[best])) {
			best = i
		}
	}
	if best < 0 {
		return append([]byte(nil), data...)
	}
	b, last := k.bufFree[best], len(k.bufFree)-1
	k.bufFree[best], k.bufFree[last] = k.bufFree[last], nil
	k.bufFree = k.bufFree[:last]
	return append(b[:0], data...)
}

// bufPut takes back the bytes of a packet no one can read any more.
func (k *Kernel) bufPut(p packet) {
	if p.owned && len(k.bufFree) < maxFreeBufs {
		k.bufFree = append(k.bufFree, p.data)
	}
}

// --- Sockets ---

// Socket creates a datagram/stream socket.
func (k *Kernel) Socket(clk *sim.Clock) int {
	clk.Advance(SyscallCost)
	return k.newSocket()
}

func (k *Kernel) newSocket() int {
	fd := k.nextFD
	k.nextFD++
	k.sockets[fd] = &socket{fd: fd, peer: -1}
	return fd
}

// dropSocket removes a socket from the descriptor table; data it still
// queues dies with it.
func (k *Kernel) dropSocket(s *socket) {
	delete(k.sockets, s.fd)
	for s.rx.len() > 0 {
		k.bufPut(s.rx.pop())
	}
}

// Listen marks a socket as accepting connections.
func (k *Kernel) Listen(clk *sim.Clock, fd int) error {
	clk.Advance(SyscallCost)
	s, ok := k.sockets[fd]
	if !ok {
		return ErrBadFD
	}
	s.listener = true
	return nil
}

// InjectConnection queues a new client connection on a listener and
// returns the client-side fd.  Workload generators use this without cost —
// the client runs on other cores.
func (k *Kernel) InjectConnection(listenFD int) (clientFD int, err error) {
	l, ok := k.sockets[listenFD]
	if !ok || !l.listener {
		return 0, ErrNotListener
	}
	server := k.newSocket()
	client := k.newSocket()
	k.sockets[server].peer = client
	k.sockets[client].peer = server
	k.sockets[client].remote = true
	l.accepted.push(server)
	return client, nil
}

// Accept pops a pending connection off a listener.
func (k *Kernel) Accept(clk *sim.Clock, fd int) (int, error) {
	clk.Advance(SyscallCost)
	l, ok := k.sockets[fd]
	if !ok || !l.listener {
		return 0, ErrNotListener
	}
	if l.accepted.len() == 0 {
		return 0, ErrWouldBlock
	}
	return l.accepted.pop(), nil
}

// Inject queues payload bytes for reception on fd, as if a remote peer
// had sent them.  Generators use this without cost.
func (k *Kernel) Inject(fd int, data []byte) error {
	s, ok := k.sockets[fd]
	if !ok {
		return ErrBadFD
	}
	s.rx.push(packet{data: k.bufGet(data), addr: k.kalloc(uint64(len(data))), owned: true})
	return nil
}

// Readable reports whether fd has queued data, without a syscall.
func (k *Kernel) Readable(fd int) bool {
	s, ok := k.sockets[fd]
	return ok && s.rx.len() > 0
}

// popRX dequeues the next packet of s, reaping a remote end that has
// nothing left to deliver.
func (k *Kernel) popRX(s *socket) packet {
	pkt := s.rx.pop()
	if s.remote && s.peerClosed && s.rx.len() == 0 {
		k.dropSocket(s)
	}
	return pkt
}

// Recv copies one queued packet into the user buffer at userAddr and
// charges the kernel-to-user copy.  It returns the byte count.
func (k *Kernel) Recv(clk *sim.Clock, fd int, userAddr uint64, userBuf []byte) (int, error) {
	clk.Advance(SyscallCost)
	s, ok := k.sockets[fd]
	if !ok {
		return 0, ErrBadFD
	}
	if s.rx.len() == 0 {
		return 0, ErrWouldBlock
	}
	pkt := k.popRX(s)
	n := copy(userBuf, pkt.data)
	k.bufPut(pkt)
	k.Mem.Copy(clk, userAddr, pkt.addr, uint64(n))
	return n, nil
}

// Send copies user bytes into a kernel buffer and delivers them to the
// peer socket (or counts them as transmitted when the peer is remote).
func (k *Kernel) Send(clk *sim.Clock, fd int, userAddr uint64, data []byte) (int, error) {
	clk.Advance(SyscallCost)
	s, ok := k.sockets[fd]
	if !ok {
		return 0, ErrBadFD
	}
	kaddr := k.kalloc(uint64(len(data)))
	k.Mem.Copy(clk, kaddr, userAddr, uint64(len(data)))
	k.TX += uint64(len(data))
	if peer, ok := k.sockets[s.peer]; ok {
		peer.rx.push(packet{data: k.bufGet(data), addr: kaddr, owned: true})
	}
	return len(data), nil
}

// TakeRX pops one packet destined to fd without cost — the generator side
// consuming server responses.  The slice is the caller's to keep but not
// to write: a Sendfile body is the page cache itself.
func (k *Kernel) TakeRX(fd int) ([]byte, bool) {
	s, ok := k.sockets[fd]
	if !ok || s.rx.len() == 0 {
		return nil, false
	}
	return k.popRX(s).data, true
}

// Close releases a descriptor.
func (k *Kernel) Close(clk *sim.Clock, fd int) error {
	clk.Advance(SyscallCost)
	if s, ok := k.sockets[fd]; ok {
		if peer, ok := k.sockets[s.peer]; ok {
			peer.peerClosed = true
			if peer.remote && peer.rx.len() == 0 {
				k.dropSocket(peer)
			}
		}
		k.dropSocket(s)
		return nil
	}
	if _, ok := k.files[fd]; ok {
		delete(k.files, fd)
		return nil
	}
	return ErrBadFD
}

// Shutdown half-closes a socket.
func (k *Kernel) Shutdown(clk *sim.Clock, fd int) error {
	clk.Advance(SyscallCost)
	if _, ok := k.sockets[fd]; !ok {
		return ErrBadFD
	}
	return nil
}

// --- Cheap metadata syscalls: cost only ---

// Poll checks readiness of a set of descriptors.
func (k *Kernel) Poll(clk *sim.Clock, fds ...int) int {
	clk.Advance(SyscallCost)
	ready := 0
	for _, fd := range fds {
		if k.Readable(fd) {
			ready++
		}
	}
	return ready
}

// EpollCtl registers interest; the model only charges the transition.
func (k *Kernel) EpollCtl(clk *sim.Clock) { clk.Advance(SyscallCost) }

// Fcntl manipulates descriptor flags.
func (k *Kernel) Fcntl(clk *sim.Clock) { clk.Advance(SyscallCost) }

// Setsockopt sets socket options.
func (k *Kernel) Setsockopt(clk *sim.Clock) { clk.Advance(SyscallCost) }

// Ioctl performs a device control call.
func (k *Kernel) Ioctl(clk *sim.Clock) { clk.Advance(SyscallCost) }

// Time returns wall-clock seconds derived from the calling core's cycles.
func (k *Kernel) Time(clk *sim.Clock) uint64 {
	clk.Advance(SyscallCost)
	return uint64(sim.Seconds(clk.Now()))
}

// GetPID returns the process ID (OpenSSL calls this on every cryptographic
// context operation, which is why it shows up so high in Table 2).
func (k *Kernel) GetPID(clk *sim.Clock) int {
	clk.Advance(SyscallCost)
	return k.pid
}

// --- Files ---

// WriteFS installs a file into the in-memory file system (no cost: setup).
func (k *Kernel) WriteFS(name string, data []byte) {
	k.fs[name] = append([]byte(nil), data...)
	k.fsAddr[name] = k.kalloc(uint64(len(data)))
}

// Open opens a file.
func (k *Kernel) Open(clk *sim.Clock, name string) (int, error) {
	clk.Advance(SyscallCost)
	data, ok := k.fs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	}
	fd := k.nextFD
	k.nextFD++
	k.files[fd] = &file{name: name, data: data, addr: k.fsAddr[name]}
	return fd, nil
}

// Fstat returns a file's size.
func (k *Kernel) Fstat(clk *sim.Clock, fd int) (int, error) {
	clk.Advance(SyscallCost)
	f, ok := k.files[fd]
	if !ok {
		return 0, ErrBadFD
	}
	return len(f.data), nil
}

// Sendfile streams a whole file to a socket inside the kernel: no
// user-space copy, which is why lighttpd uses it for page bodies.
func (k *Kernel) Sendfile(clk *sim.Clock, outFD, inFD int) (int, error) {
	clk.Advance(SyscallCost)
	f, ok := k.files[inFD]
	if !ok {
		return 0, ErrBadFD
	}
	s, ok := k.sockets[outFD]
	if !ok {
		return 0, ErrBadFD
	}
	// Kernel-side page-cache to socket-buffer move.
	k.Mem.StreamRead(clk, f.addr, uint64(len(f.data)))
	k.TX += uint64(len(f.data))
	if peer, ok := k.sockets[s.peer]; ok {
		// The page cache is immutable (WriteFS installs a private copy),
		// so the peer reads the file's own bytes: no socket-buffer copy.
		peer.rx.push(packet{data: f.data, addr: f.addr})
	}
	return len(f.data), nil
}
