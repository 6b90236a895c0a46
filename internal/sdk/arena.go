package sdk

import "hotcalls/internal/sim"

// Allocation cost constants, in cycles.
const (
	mallocCost = 45 // untrusted heap malloc/free bookkeeping
	allocaCost = 18 // stack pointer bump
)

// Arena is an untrusted-heap bump allocator handing out simulated
// plaintext addresses with real byte backing.
type Arena struct {
	next uint64
	end  uint64
}

// NewArena returns an arena over [base, base+size).
func NewArena(base, size uint64) *Arena {
	return &Arena{next: base, end: base + size}
}

// Alloc returns the address of a new block, 64-byte aligned.
func (a *Arena) Alloc(clk *sim.Clock, size uint64) uint64 {
	clk.Advance(mallocCost)
	size = (size + 63) / 64 * 64
	if a.next+size > a.end {
		panic("sdk: untrusted arena exhausted")
	}
	addr := a.next
	a.next += size
	return addr
}

// AllocBuffer allocates a zero-initialized buffer with real backing.
func (a *Arena) AllocBuffer(clk *sim.Clock, size uint64) *Buffer {
	return &Buffer{Addr: a.Alloc(clk, size), Data: make([]byte, size)}
}
