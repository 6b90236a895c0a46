package sdk

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SpinLock is the sgx_spin_lock equivalent: a plain busy-wait lock with no
// OS involvement, usable from both trusted and untrusted code (Section 4.2
// of the paper).  The HotCalls implementation in internal/core builds on
// it.  The zero value is an unlocked lock.
type SpinLock struct {
	state uint32
}

// TryLock attempts to take the lock without spinning.
func (l *SpinLock) TryLock() bool {
	return atomic.CompareAndSwapUint32(&l.state, 0, 1)
}

// Lock spins until the lock is acquired.  The PAUSE instruction in the
// paper's busy-wait loop maps to runtime.Gosched, which also keeps the
// loop live-lock-free on a single hardware thread.
func (l *SpinLock) Lock() {
	for !l.TryLock() {
		runtime.Gosched()
	}
}

// Unlock releases the lock.  Unlocking an unlocked SpinLock panics, as
// that is always a caller bug.
func (l *SpinLock) Unlock() {
	if !atomic.CompareAndSwapUint32(&l.state, 1, 0) {
		panic("sdk: unlock of unlocked SpinLock")
	}
}

// Cond is the sgx_thread_cond replacement for pthread_cond_t, used by the
// HotCalls responder to sleep through idle periods (Section 4.2,
// "Conserving resources at idle times").
type Cond struct {
	once sync.Once
	mu   sync.Mutex
	c    *sync.Cond
}

func (c *Cond) init() {
	c.once.Do(func() { c.c = sync.NewCond(&c.mu) })
}

// Wait blocks until Signal or Broadcast, re-checking cond each wakeup.
func (c *Cond) Wait(cond func() bool) {
	c.init()
	c.mu.Lock()
	for !cond() {
		c.c.Wait()
	}
	c.mu.Unlock()
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	c.init()
	c.mu.Lock()
	c.c.Signal()
	c.mu.Unlock()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	c.init()
	c.mu.Lock()
	c.c.Broadcast()
	c.mu.Unlock()
}
