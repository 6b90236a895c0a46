package memcached

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"hotcalls/internal/apps/porting"
)

// TestItemTableMatchesMap drives the item table with seeded random SET,
// GET and DELETE over 400 keys against a plain map.  Values are
// rewritten from one scratch buffer at random lengths, so overwrites are
// both shorter and longer than the item they land in, and a table that
// kept the caller's bytes instead of copying them fails.
func TestItemTableMatchesMap(t *testing.T) {
	var tab itemTable
	oracle := map[string]string{}
	rng := rand.New(rand.NewPCG(36, 1))
	keys := make([][]byte, 400)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key-%d", i)
	}
	scratch := make([]byte, 96)
	check := func(step int, k []byte) {
		v, ok := tab.get(porting.FNV64(k), k)
		if want, had := oracle[string(k)]; ok != had || string(v) != want {
			t.Fatalf("step %d: get(%q) = (%q, %v), want (%q, %v)", step, k, v, ok, want, had)
		}
	}
	for step := 0; step < 50_000; step++ {
		k := keys[rng.IntN(len(keys))]
		h := porting.FNV64(k)
		switch r := rng.IntN(10); {
		case r < 5:
			v := scratch[:rng.IntN(len(scratch)+1)]
			for i := range v {
				v[i] = byte(rng.Uint32())
			}
			tab.set(h, k, v)
			oracle[string(k)] = string(v)
		case r < 7:
			_, had := oracle[string(k)]
			if ok := tab.delete(h, k); ok != had {
				t.Fatalf("step %d: delete(%q) = %v, want %v", step, k, ok, had)
			}
			delete(oracle, string(k))
		default:
			check(step, k)
		}
		if tab.n != len(oracle) {
			t.Fatalf("step %d: %d items, want %d", step, tab.n, len(oracle))
		}
	}
	for _, k := range keys {
		check(-1, k)
	}
	if len(tab.slots) < 16<<3 {
		t.Fatalf("index has %d slots: it grew through fewer than 3 doublings", len(tab.slots))
	}
}

// TestItemTableDeleteKeepsChain builds one probe chain from hand-chosen
// hashes in a 16-slot index: four keys homed at bucket 14 (two of them
// with the same full hash) wrap around the end of the array into slots
// 0 and 1, and keys homed at 0, 3 and 2 queue behind them.  Deleting any
// one key must leave every other key readable, which holds only if the
// entries behind the hole shift back — and only those whose home bucket
// allows it.
func TestItemTableDeleteKeepsChain(t *testing.T) {
	bucket := func(b, low uint64) uint64 { return b<<stripeBits | low }
	chain := []struct {
		key  string
		hash uint64
	}{
		{"a", bucket(14, 1)}, // slot 14
		{"b", bucket(14, 2)}, // 15
		{"c", bucket(14, 3)}, // 0
		{"d", bucket(14, 3)}, // 1: c's full hash, told apart by key
		{"e", bucket(0, 4)},  // 2, displaced from its home
		{"f", bucket(3, 5)},  // 3, at home: must never move back
		{"g", bucket(2, 6)},  // 4, displaced from its home
	}
	for del := range chain {
		var tab itemTable
		for _, e := range chain {
			tab.set(e.hash, []byte(e.key), []byte("value-"+e.key))
		}
		if len(tab.slots) != 16 {
			t.Fatalf("index grew to %d slots; the chain needs 16", len(tab.slots))
		}
		if !tab.delete(chain[del].hash, []byte(chain[del].key)) {
			t.Fatalf("delete(%s) missed", chain[del].key)
		}
		for i, e := range chain {
			v, ok := tab.get(e.hash, []byte(e.key))
			if i == del && ok {
				t.Errorf("after delete(%s): %s still present", chain[del].key, e.key)
			}
			if i != del && (!ok || string(v) != "value-"+e.key) {
				t.Errorf("after delete(%s): get(%s) = (%q, %v)", chain[del].key, e.key, v, ok)
			}
		}
		if tab.n != len(chain)-1 {
			t.Errorf("after delete(%s): %d items, want %d", chain[del].key, tab.n, len(chain)-1)
		}
	}
}
