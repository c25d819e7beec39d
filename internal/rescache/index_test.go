package rescache

import (
	"fmt"
	"testing"
)

// refEntry is one entry of refIndex.
type refEntry struct {
	key  string
	cost int64
	val  int
}

// refIndex is the reference for Index: the same recency and eviction
// policy over a slice kept in recency order (most recent first), with
// every count recomputed from the slice rather than tracked.
type refIndex struct {
	entries    []refEntry
	maxEntries int
	maxBytes   int64
	evictions  uint64
}

func (r *refIndex) find(key string) int {
	for i, e := range r.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

// touch moves entry i to the front.
func (r *refIndex) touch(i int) {
	e := r.entries[i]
	copy(r.entries[1:i+1], r.entries[:i])
	r.entries[0] = e
}

func (r *refIndex) get(key string) (int, bool) {
	i := r.find(key)
	if i < 0 {
		return 0, false
	}
	r.touch(i)
	return r.entries[0].val, true
}

func (r *refIndex) put(key string, cost int64, val int) {
	if i := r.find(key); i >= 0 {
		r.touch(i)
		r.entries[0].cost, r.entries[0].val = cost, val
	} else {
		r.entries = append([]refEntry{{key, cost, val}}, r.entries...)
	}
	for len(r.entries) > 1 &&
		((r.maxBytes > 0 && r.bytes() > r.maxBytes) || (r.maxEntries > 0 && len(r.entries) > r.maxEntries)) {
		r.entries = r.entries[:len(r.entries)-1]
		r.evictions++
	}
}

func (r *refIndex) delete(key string) {
	if i := r.find(key); i >= 0 {
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
	}
}

func (r *refIndex) bytes() int64 {
	var n int64
	for _, e := range r.entries {
		n += e.cost
	}
	return n
}

// FuzzIndexVsReference drives an Index and refIndex with one stream of
// put, get, delete and purge operations over six keys, under small
// bounds (≤ 0 is unbounded), and requires equal answers and equal
// Len, Bytes and Evictions after every step. Each operation is two
// bytes: the first picks the operation and the key, the second the
// cost (0..15) of a put.
func FuzzIndexVsReference(f *testing.F) {
	f.Add(int8(2), int8(-1), []byte{0, 3, 8, 4, 16, 5, 3, 0, 24, 1})
	f.Add(int8(-1), int8(20), []byte{0, 9, 8, 9, 16, 9, 11, 0, 0, 15})
	f.Add(int8(3), int8(12), []byte{0, 4, 8, 4, 6, 0, 16, 4, 7, 0, 0, 30, 3, 0})
	f.Add(int8(0), int8(0), []byte{0, 1, 8, 2, 7, 0, 3, 0, 11, 0})
	f.Fuzz(func(t *testing.T, maxEntries, maxBytes int8, ops []byte) {
		x := NewIndex[int](int(maxEntries), int64(maxBytes))
		ref := &refIndex{maxEntries: int(maxEntries), maxBytes: int64(maxBytes)}
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			key := fmt.Sprintf("k%d", (op>>3)%6)
			switch op % 8 {
			case 0, 1, 2:
				cost := int64(arg % 16)
				x.Put(key, cost, step)
				ref.put(key, cost, step)
			case 3, 4, 5:
				got, gotOK := x.Get(key)
				want, wantOK := ref.get(key)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d: Get(%s) = %d, %v; reference %d, %v", step, key, got, gotOK, want, wantOK)
				}
			case 6:
				x.Delete(key)
				ref.delete(key)
			case 7:
				x.Purge()
				ref.entries = nil
			}
			if x.Len() != len(ref.entries) || x.Bytes() != ref.bytes() || x.Evictions() != ref.evictions {
				t.Fatalf("step %d: Len %d Bytes %d Evictions %d; reference %d %d %d",
					step, x.Len(), x.Bytes(), x.Evictions(), len(ref.entries), ref.bytes(), ref.evictions)
			}
		}
	})
}
