package rescache

import "container/list"

// indexEntry is one resident value with its accounted cost.
type indexEntry[V any] struct {
	key  string
	cost int64
	val  V
}

// Index is the bounded recency index under every cache in the repo:
// a map over a recency list with entry and byte accounting, evicting
// from the cold end once either bound is exceeded. The LRU store keeps
// result rows in one; the engine's program and analysis memos keep
// their once-entries in others.
//
// An Index takes no lock of its own: its owner serializes every call.
type Index[V any] struct {
	m          map[string]*list.Element
	order      list.List // front = most recently used
	maxEntries int
	maxBytes   int64
	bytes      int64
	evictions  uint64
}

// NewIndex returns an empty index bounded to maxEntries entries and
// maxBytes accounted bytes; a bound ≤ 0 leaves that dimension
// unbounded.
func NewIndex[V any](maxEntries int, maxBytes int64) *Index[V] {
	return &Index[V]{m: map[string]*list.Element{}, maxEntries: maxEntries, maxBytes: maxBytes}
}

// Get returns the value stored under key and refreshes its recency.
func (x *Index[V]) Get(key string) (V, bool) {
	el, ok := x.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	x.order.MoveToFront(el)
	return el.Value.(*indexEntry[V]).val, true
}

// Put stores v under key at the given cost, replacing any previous
// value, then evicts from the cold end until the bounds hold again.
// The entry just written is never evicted, so a single oversized value
// is still stored.
func (x *Index[V]) Put(key string, cost int64, v V) {
	if el, ok := x.m[key]; ok {
		e := el.Value.(*indexEntry[V])
		x.bytes += cost - e.cost
		e.cost, e.val = cost, v
		x.order.MoveToFront(el)
	} else {
		x.m[key] = x.order.PushFront(&indexEntry[V]{key: key, cost: cost, val: v})
		x.bytes += cost
	}
	for x.order.Len() > 1 && ((x.maxBytes > 0 && x.bytes > x.maxBytes) ||
		(x.maxEntries > 0 && x.order.Len() > x.maxEntries)) {
		x.remove(x.order.Back())
		x.evictions++
	}
}

// Delete removes key, if present. Evictions counts only entries
// dropped to honour the bounds, so a deliberate removal leaves it as
// it is.
func (x *Index[V]) Delete(key string) {
	if el, ok := x.m[key]; ok {
		x.remove(el)
	}
}

// Purge drops every entry; the eviction count is kept.
func (x *Index[V]) Purge() {
	x.m = map[string]*list.Element{}
	x.order.Init()
	x.bytes = 0
}

// Len is the number of resident entries.
func (x *Index[V]) Len() int { return x.order.Len() }

// Bytes is the accounted cost of the resident entries.
func (x *Index[V]) Bytes() int64 { return x.bytes }

// Evictions counts the entries dropped to honour the bounds.
func (x *Index[V]) Evictions() uint64 { return x.evictions }

func (x *Index[V]) remove(el *list.Element) {
	e := x.order.Remove(el).(*indexEntry[V])
	delete(x.m, e.key)
	x.bytes -= e.cost
}
