package memcached

import "hotcalls/internal/apps/porting"

// Store is the simulated server's key-value store: the item table execute
// serves from, plus a memory-cost profile that charges hash-probe and
// value accesses at addresses spread across the store's footprint —
// uniform accesses with poor spatial locality, the behaviour the paper
// blames for memcached's "fundamental limitation" under memory encryption
// (Section 6.2).  The key's FNV64 hash, computed once at decode, indexes
// the table and places the charged accesses.
type Store struct {
	items itemTable

	hashBase   uint64
	hashSpan   uint64
	valueBase  uint64
	valueSlots uint64
	valueSize  uint64
}

// NewStore reserves the store's address footprint in the app's memory.
// keyspace and valueSize size the value region; the hash structures get
// half as much again, matching memcached's slab and hash overheads.
func NewStore(app *porting.App, keyspace int, valueSize uint64) *Store {
	valueSpan := uint64(keyspace) * valueSize
	hashSpan := valueSpan / 2
	return &Store{
		hashBase:   app.ReserveRegion(hashSpan),
		hashSpan:   hashSpan,
		valueBase:  app.ReserveRegion(valueSpan),
		valueSlots: uint64(keyspace),
		valueSize:  valueSize,
	}
}

// charge bills one executed request that moved moved value bytes: the
// hash-chain walk (two dependent loads at hash-distributed addresses:
// bucket head, then item header), then a SET's streaming write of the
// value, or a GET hit's streaming read of it and its copy to dst (a miss
// or a DELETE moves nothing).
func (s *Store) charge(env *porting.Env, req *requestView, moved int, dst uint64) {
	m, h := env.App.Platform.Mem, req.hash
	m.Load(env.Clk, s.hashBase+(h%s.hashSpan)/64*64)
	m.Load(env.Clk, s.hashBase+(h*0x9e3779b97f4a7c15%s.hashSpan)/64*64)
	src := s.valueBase + h%s.valueSlots*s.valueSize
	if req.op == OpSet {
		m.StreamWrite(env.Clk, src, uint64(moved))
	} else {
		m.StreamRead(env.Clk, src, uint64(moved))
		m.Copy(env.Clk, dst, src, uint64(moved))
	}
}
