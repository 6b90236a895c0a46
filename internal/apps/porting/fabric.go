package porting

import "hotcalls/internal/core"

// Window is every fabric port's connection window: NewFabric sizes each
// connection's ring to it, so it bounds the requests a connection keeps in
// flight and the per-request buffer sets a port keeps, one per ring slot
// (core.Requester.Next).
const Window = 16

// Fabric is the kit a fabric-routed port embeds: its CallPool and the
// pool's lifecycle, the same for every port and so kept here, once.  What
// a port has to say is its protocol and its handler.  A port builds it
// with NewFabric and reads the pool through Pool (stats, responder
// counts, SetTelemetry before Start).
type Fabric struct {
	pool *core.CallPool
}

// NewFabric builds the fabric for up to conns client connections, one
// shard of Window slots each: opts tunes the CallPool, its Shards and
// SlotsPerShard fields are overridden.
func NewFabric(conns int, table []core.PoolFunc, opts core.PoolOptions) Fabric {
	opts.Shards, opts.SlotsPerShard = conns, Window
	return Fabric{pool: core.NewCallPool(table, opts)}
}

// Pool exposes the underlying CallPool.
func (f *Fabric) Pool() *core.CallPool { return f.pool }

// Start launches the adaptive responder pool.
func (f *Fabric) Start() { f.pool.Start() }

// Stop shuts the fabric down.
func (f *Fabric) Stop() { f.pool.Stop() }

// PackData packs two 32-bit halves into a fabric call word: a buffer-ring
// port's request (buffer slot, length), or lighttpd's response (image
// index, length).
func PackData(hi, n int) uint64 { return uint64(hi)<<32 | uint64(uint32(n)) }

// UnpackData splits a word PackData built.  A call word is the untrusted
// side's to write: the handler bounds-checks both halves against its own
// window and buffer before it uses either.
func UnpackData(d uint64) (hi, n uint64) { return d >> 32, d & (1<<32 - 1) }

// FNV64 is FNV-1a over a key in either of its forms: memcached's item
// table and lock striping hash with it.
func FNV64[K ~string | ~[]byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
