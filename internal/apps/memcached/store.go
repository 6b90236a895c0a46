package memcached

import "hotcalls/internal/apps/porting"

// Store is the simulated server's key-value store: an item table holding
// the real bytes, plus a memory-cost profile that charges hash-probe and
// value accesses at addresses spread across the store's footprint —
// uniform accesses with poor spatial locality, the behaviour the paper
// blames for memcached's "fundamental limitation" under memory encryption
// (Section 6.2).  Each operation hashes its key once (FNV64); the hash
// indexes the table and places the charged accesses.
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

// probe hashes key and charges the hash-chain walk: two dependent loads
// at hash-distributed addresses (bucket head, then item header).
func (s *Store) probe(env *porting.Env, key []byte) uint64 {
	h, m := porting.FNV64(key), env.App.Platform.Mem
	m.Load(env.Clk, s.hashBase+(h%s.hashSpan)/64*64)
	m.Load(env.Clk, s.hashBase+(h*0x9e3779b97f4a7c15%s.hashSpan)/64*64)
	return h
}

func (s *Store) valueAddr(h uint64) uint64 { return s.valueBase + h%s.valueSlots*s.valueSize }

// Get returns a view of the stored value and whether the key exists, and
// charges the lookup: hash probes, a streaming read of the value, and its
// copy to dst.
func (s *Store) Get(env *porting.Env, key []byte, dst uint64) ([]byte, bool) {
	h := s.probe(env, key)
	v, ok := s.items.get(h, key)
	if ok {
		m, src := env.App.Platform.Mem, s.valueAddr(h)
		m.StreamRead(env.Clk, src, uint64(len(v)))
		m.Copy(env.Clk, dst, src, uint64(len(v)))
	}
	return v, ok
}

// Set stores a value and charges the hash probes plus a streaming write of
// the value bytes.
func (s *Store) Set(env *porting.Env, key, value []byte) {
	h := s.probe(env, key)
	env.App.Platform.Mem.StreamWrite(env.Clk, s.valueAddr(h), uint64(len(value)))
	s.items.set(h, key, value)
}

// Delete removes a key, charging the hash probes; it reports whether the
// key existed.
func (s *Store) Delete(env *porting.Env, key []byte) bool {
	h := s.probe(env, key)
	return s.items.delete(h, key)
}

// Len returns the number of stored items.
func (s *Store) Len() int { return s.items.n }
