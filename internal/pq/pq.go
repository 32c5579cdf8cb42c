// Package pq provides indexed priority queues used by the shortest-path and
// minimum-spanning-tree algorithms in this repository.
//
// The central type is IndexedMinHeap, a 4-ary min-heap keyed by float64
// priorities over a dense universe of integer items [0, n). Push of an
// item already in the heap is the decrease-key operation Dijkstra's and
// Prim's algorithms require, in O(log n) time; membership and priority
// lookup are O(1). Each heap slot stores its key beside its item, so the
// sift loops compare keys read straight from the slots instead of through
// a per-item key array, and the four children of a slot share one or two
// cache lines.
package pq

// entry is one heap slot: an item and its current key.
type entry struct {
	key  float64
	item int32
}

// IndexedMinHeap is a 4-ary min-heap over items 0..n-1 with float64 keys.
// Each item may appear at most once. Among equal keys the pop order is
// unspecified. The zero value is not usable; construct with
// NewIndexedMinHeap, or Init a heap held by value.
type IndexedMinHeap struct {
	// heap[i] is the slot at heap position i; the children of position i
	// are 4i+1 .. 4i+4.
	heap []entry
	// pos[v] is the heap position of item v, or -1 if v is not in the heap.
	pos []int32
}

// NewIndexedMinHeap returns an empty heap over the universe [0, n).
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := new(IndexedMinHeap)
	h.Init(n)
	return h
}

// Init makes h an empty heap over the universe [0, n), so a heap can live
// by value inside the struct that uses it instead of as its own small
// allocation.
func (h *IndexedMinHeap) Init(n int) {
	h.heap = make([]entry, 0, n)
	h.pos = make([]int32, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// Len reports the number of items currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.heap) }

// Contains reports whether item v is currently in the heap.
func (h *IndexedMinHeap) Contains(v int) bool { return h.pos[v] >= 0 }

// Key returns the current priority of item v. It must only be called when
// Contains(v) is true; otherwise it returns zero.
func (h *IndexedMinHeap) Key(v int) float64 {
	if p := h.pos[v]; p >= 0 {
		return h.heap[p].key
	}
	return 0
}

// Push inserts item v with priority k. If v is already present, Push
// lowers its priority to k when k is smaller than the current key and is a
// no-op otherwise.
func (h *IndexedMinHeap) Push(v int, k float64) {
	if p := h.pos[v]; p >= 0 {
		if k < h.heap[p].key {
			h.siftUp(int(p), entry{key: k, item: int32(v)})
		}
		return
	}
	h.heap = append(h.heap, entry{})
	h.siftUp(len(h.heap)-1, entry{key: k, item: int32(v)})
}

// Peek returns the item with the minimum key and that key without removing
// it. It must not be called on an empty heap.
func (h *IndexedMinHeap) Peek() (v int, k float64) {
	top := h.heap[0]
	return int(top.item), top.key
}

// Pop removes and returns the item with the minimum key along with that key.
// It must not be called on an empty heap (Len() == 0); doing so panics, which
// indicates a programming error in the caller.
func (h *IndexedMinHeap) Pop() (v int, k float64) {
	top := h.heap[0]
	h.pos[top.item] = -1
	last := len(h.heap) - 1
	tail := h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(tail)
	}
	return int(top.item), top.key
}

// Reset empties the heap without releasing its backing storage, allowing it
// to be reused across repeated runs over the same universe.
func (h *IndexedMinHeap) Reset() {
	for _, e := range h.heap {
		h.pos[e.item] = -1
	}
	h.heap = h.heap[:0]
}

// siftUp places e at position i or above: parents with larger keys move
// down into the hole until e's parent key is at most e's.
func (h *IndexedMinHeap) siftUp(i int, e entry) {
	for i > 0 {
		parent := (i - 1) >> 2
		p := h.heap[parent]
		if p.key <= e.key {
			break
		}
		h.heap[i] = p
		h.pos[p.item] = int32(i)
		i = parent
	}
	h.heap[i] = e
	h.pos[e.item] = int32(i)
}

// siftDown places e into the hole at the root: the smallest child moves up
// while its key is below e's.
func (h *IndexedMinHeap) siftDown(e entry) {
	n := len(h.heap)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		kids := h.heap[first:min(first+4, n)]
		best := 0
		for c := 1; c < len(kids); c++ {
			if kids[c].key < kids[best].key {
				best = c
			}
		}
		child := kids[best]
		if child.key >= e.key {
			break
		}
		h.heap[i] = child
		h.pos[child.item] = int32(i)
		i = first + best
	}
	h.heap[i] = e
	h.pos[e.item] = int32(i)
}
