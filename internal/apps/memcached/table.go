package memcached

import "bytes"

// itemTable is memcached's item index, the one structure under both the
// simulated Store and each PoolServer stripe: a power-of-two array of
// slots probed linearly from the key's FNV64 hash.  The hash's low
// stripeBits pick a PoolServer stripe, so the bucket is the bits above
// them.  An item is key‖value in one allocation; a nil item is an empty
// slot.  The array doubles once it is more than half full, and a delete
// shifts the rest of its probe chain back, so there are no tombstones and
// a chain ends at the first empty slot.
type itemTable struct {
	slots []itemSlot
	n     int
}

type itemSlot struct {
	hash uint64
	klen int
	item []byte
}

// find returns the index of key's slot, or of the empty slot that ends
// its probe chain.
func (t *itemTable) find(h uint64, key []byte) (uint64, bool) {
	if t.slots == nil {
		t.slots = make([]itemSlot, 16)
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> stripeBits & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.item == nil || sl.hash == h && bytes.Equal(sl.item[:sl.klen], key) {
			return i, sl.item != nil
		}
	}
}

// get returns a view of key's value, aliasing its item.
func (t *itemTable) get(h uint64, key []byte) ([]byte, bool) {
	i, ok := t.find(h, key)
	return t.slots[i].item[t.slots[i].klen:], ok
}

// set stores value under key, in place when the item has room for it.
func (t *itemTable) set(h uint64, key, value []byte) {
	i, ok := t.find(h, key)
	if sl := &t.slots[i]; ok && cap(sl.item)-sl.klen >= len(value) {
		sl.item = sl.item[:sl.klen+copy(sl.item[sl.klen:cap(sl.item)], value)]
		return
	}
	item := make([]byte, len(key)+len(value))
	copy(item[copy(item, key):], value)
	t.slots[i] = itemSlot{hash: h, klen: len(key), item: item}
	if ok {
		return
	}
	if t.n++; 2*t.n <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]itemSlot, 2*len(old))
	for _, sl := range old {
		if sl.item != nil {
			j, _ := t.find(sl.hash, sl.item[:sl.klen])
			t.slots[j] = sl
		}
	}
}

// delete removes key and reports whether it was there.  The hole walks
// down the chain: each later entry whose home bucket is not between the
// hole and itself moves up into it.
func (t *itemTable) delete(h uint64, key []byte) bool {
	i, ok := t.find(h, key)
	if !ok {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].item != nil; j = (j + 1) & mask {
		if home := t.slots[j].hash >> stripeBits & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = itemSlot{}
	t.n--
	return true
}

// execute is memcached's one request body, run by both servers: it
// applies req to t and encodes the response into resp, a GET hit's value
// copied once to its place behind the header (resp holds anything a
// request buffer could carry, so EncodeResponse finds source and
// destination identical and moves nothing).  It returns the response
// length and the value bytes the request moved — a GET hit's or a SET's
// — which each clock charges its own way.
func execute(t *itemTable, req *requestView, resp []byte) (respLen, moved int) {
	r := Response{Op: req.op, Opaque: req.opaque, Status: StatusOK}
	switch req.op {
	case OpGet:
		if v, ok := t.get(req.hash, req.key); ok {
			r.Value = resp[HeaderSize : HeaderSize+copy(resp[HeaderSize:], v)]
		} else {
			r.Status = StatusNotFound
		}
	case OpSet:
		t.set(req.hash, req.key, req.value)
	case OpDelete:
		if !t.delete(req.hash, req.key) {
			r.Status = StatusNotFound
		}
	}
	respLen, _ = EncodeResponse(resp, &r) // the value was cut to fit behind the header
	return respLen, len(r.Value) + len(req.value)
}
