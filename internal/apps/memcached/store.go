package memcached

import "hotcalls/internal/apps/porting"

// Store is the key-value store: a real hash map for the data path plus a
// memory-cost profile that charges hash-probe and value accesses at
// addresses spread across the store's footprint — uniform accesses with
// poor spatial locality, the behaviour the paper blames for memcached's
// "fundamental limitation" under memory encryption (Section 6.2).
type Store struct {
	items map[string][]byte

	hashBase  uint64
	hashSpan  uint64
	valueBase uint64
	valueSpan uint64
	valueSize uint64
}

// NewStore reserves the store's address footprint in the app's memory.
// keyspace and valueSize size the value region; the hash structures get
// half as much again, matching memcached's slab and hash overheads.
func NewStore(app *porting.App, keyspace int, valueSize uint64) *Store {
	valueSpan := uint64(keyspace) * valueSize
	hashSpan := valueSpan / 2
	return &Store{
		items:     make(map[string][]byte),
		hashBase:  app.ReserveRegion(hashSpan),
		hashSpan:  hashSpan,
		valueBase: app.ReserveRegion(valueSpan),
		valueSpan: valueSpan,
		valueSize: valueSize,
	}
}

func hashKey(key string) uint64 { return porting.FNV64(key) }

// probe charges the hash-chain walk: two dependent loads at
// hash-distributed addresses (bucket head, then item header).
func (s *Store) probe(env *porting.Env, h uint64) {
	m := env.App.Platform.Mem
	m.Load(env.Clk, s.hashBase+(h%s.hashSpan)/64*64)
	m.Load(env.Clk, s.hashBase+(h*0x9e3779b97f4a7c15%s.hashSpan)/64*64)
}

func (s *Store) valueAddr(h uint64) uint64 {
	slots := s.valueSpan / s.valueSize
	return s.valueBase + (h%slots)*s.valueSize
}

// Get returns the stored value (nil if missing) and charges the lookup:
// hash probes plus a streaming read of the value.
func (s *Store) Get(env *porting.Env, key string) []byte {
	h := hashKey(key)
	s.probe(env, h)
	v, ok := s.items[key]
	if !ok {
		return nil
	}
	env.App.Platform.Mem.StreamRead(env.Clk, s.valueAddr(h), uint64(len(v)))
	return v
}

// Set stores a value and charges the hash probes plus a streaming write of
// the value bytes.
func (s *Store) Set(env *porting.Env, key string, value []byte) {
	h := hashKey(key)
	s.probe(env, h)
	env.App.Platform.Mem.StreamWrite(env.Clk, s.valueAddr(h), uint64(len(value)))
	s.items[key] = append(s.items[key][:0], value...)
}

// Delete removes a key, charging the hash probes; it reports whether the
// key existed.
func (s *Store) Delete(env *porting.Env, key string) bool {
	h := hashKey(key)
	s.probe(env, h)
	if _, ok := s.items[key]; !ok {
		return false
	}
	delete(s.items, key)
	return true
}

// Len returns the number of stored items.
func (s *Store) Len() int { return len(s.items) }

// ValueAddr exposes the cost-model address of a key's value (tests).
func (s *Store) ValueAddr(key string) uint64 { return s.valueAddr(hashKey(key)) }
