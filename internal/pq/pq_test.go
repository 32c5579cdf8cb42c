package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEntrySize pins a heap slot at 16 bytes, the figure the byte budget's
// per-vertex searcher cost (core's searcherBytesPerVertex) assumes.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("heap slot is %d bytes, want 16", got)
	}
}

func TestIndexedMinHeapBasic(t *testing.T) {
	h := NewIndexedMinHeap(10)
	if h.Len() != 0 {
		t.Fatalf("new heap Len = %d, want 0", h.Len())
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(2, 3.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if !h.Contains(7) || h.Contains(4) {
		t.Fatal("Contains wrong")
	}
	v, k := h.Pop()
	if v != 7 || k != 1.0 {
		t.Fatalf("Pop = (%d, %v), want (7, 1)", v, k)
	}
	v, k = h.Pop()
	if v != 2 || k != 3.0 {
		t.Fatalf("Pop = (%d, %v), want (2, 3)", v, k)
	}
	v, k = h.Pop()
	if v != 3 || k != 5.0 {
		t.Fatalf("Pop = (%d, %v), want (3, 5)", v, k)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestIndexedMinHeapPushDuplicate(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(1, 10)
	h.Push(1, 4) // lowers the key
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	if h.Key(1) != 4 {
		t.Fatalf("Key = %v, want 4", h.Key(1))
	}
	h.Push(1, 99) // larger key: no-op
	if h.Key(1) != 4 {
		t.Fatalf("Key = %v after larger push, want 4", h.Key(1))
	}
}

func TestIndexedMinHeapReset(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.Push(0, 1)
	h.Push(3, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(3) {
		t.Fatal("Reset did not clear the heap")
	}
	h.Push(3, 7)
	if v, k := h.Pop(); v != 3 || k != 7 {
		t.Fatalf("Pop after Reset = (%d,%v), want (3,7)", v, k)
	}
}

// heapSortVia drains the heap and checks the output is sorted and a
// permutation of the input keys.
func heapSortVia(t *testing.T, push func(int, float64), pop func() (int, float64), length func() int, keys []float64) {
	t.Helper()
	for i, k := range keys {
		push(i, k)
	}
	got := make([]float64, 0, len(keys))
	for length() > 0 {
		_, k := pop()
		got = append(got, k)
	}
	if len(got) != len(keys) {
		t.Fatalf("drained %d items, want %d", len(got), len(keys))
	}
	want := append([]float64(nil), keys...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order wrong at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIndexedMinHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
		}
		h := NewIndexedMinHeap(n)
		heapSortVia(t, h.Push, h.Pop, h.Len, keys)
	}
}

// naiveHeap is the linear-scan priority queue TestHeapsAgree checks the
// indexed heap against.
type naiveHeap struct {
	key []float64
	in  []bool
	n   int
}

func newNaiveHeap(n int) *naiveHeap {
	return &naiveHeap{key: make([]float64, n), in: make([]bool, n)}
}

func (h *naiveHeap) Push(v int, k float64) { h.key[v], h.in[v] = k, true; h.n++ }

func (h *naiveHeap) DecreaseKey(v int, k float64) { h.key[v] = k }

func (h *naiveHeap) Reset() {
	clear(h.in)
	h.n = 0
}

// ties counts the items holding the minimum key; it must not be called on
// an empty heap.
func (h *naiveHeap) ties() int {
	count, min := 0, math.Inf(1)
	for v, ok := range h.in {
		switch {
		case !ok || h.key[v] > min:
		case h.key[v] < min:
			count, min = 1, h.key[v]
		default:
			count++
		}
	}
	return count
}

func (h *naiveHeap) Pop() (int, float64) {
	best := -1
	for v, ok := range h.in {
		if ok && (best < 0 || h.key[v] < h.key[best]) {
			best = v
		}
	}
	h.in[best] = false
	h.n--
	return best, h.key[best]
}

// TestHeapsAgree cross-checks the indexed heap against the naive
// reference under a random mixed workload of pushes, decrease-keys, and
// pops. The indexed heap lowers a key with Push, as Dijkstra does.
func TestHeapsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 64
	a := NewIndexedMinHeap(n)
	b := newNaiveHeap(n)
	// Continuous random keys make ties a measure-zero event, so both heaps
	// must pop the same (item, key) pair at every step.
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || a.Len() == 0:
			v := rng.Intn(n)
			k := rng.Float64() * 1000
			if !a.Contains(v) {
				a.Push(v, k)
				b.Push(v, k)
			}
		case op == 1:
			v := rng.Intn(n)
			if a.Contains(v) {
				k := a.Key(v) - rng.Float64()*10
				a.Push(v, k)
				b.DecreaseKey(v, k)
			}
		default:
			va, ka := a.Pop()
			vb, kb := b.Pop()
			if ka != kb || va != vb {
				t.Fatalf("step %d: popped (%d,%v) vs (%d,%v)", step, va, ka, vb, kb)
			}
		}
		if a.Len() != b.n {
			t.Fatalf("step %d: Len mismatch %d vs %d", step, a.Len(), b.n)
		}
	}
}

// TestHeapsAgreeWithTies is TestHeapsAgree on integer keys from a range of
// 8, so most pops choose among equal keys and the heap may pop another
// tied item than the naive heap's lowest-numbered one. Each round fills
// both heaps, then drains them while pushing and lowering keys no lower
// than the last pop, the way Dijkstra and Prim use the heap. Every pop
// must return the naive heap's key, popped keys never decrease within a
// drain, and a completed drain must pop the same (item, key) multiset
// from both heaps. Every third round resets both heaps mid-drain instead,
// and the next round starts on the reset heap.
func TestHeapsAgreeWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, keys = 64, 8
	a := NewIndexedMinHeap(n)
	b := newNaiveHeap(n)
	type popped struct {
		item int
		key  float64
	}
	// offer pushes v with key k into both heaps when it is in neither, or
	// lowers it in both when it is in both; the heaps may hold different
	// tied items mid-drain, and an item in only one is left alone.
	offer := func(v int, k float64) {
		switch {
		case !a.Contains(v) && !b.in[v]:
			a.Push(v, k)
			b.Push(v, k)
		case a.Contains(v) && b.in[v] && k < a.Key(v):
			a.Push(v, k)
			b.DecreaseKey(v, k)
		}
	}
	tiedPops := 0
	for round := 0; round < 400; round++ {
		for fill := 1 + rng.Intn(2*n); fill > 0; fill-- {
			offer(rng.Intn(n), float64(rng.Intn(keys)))
		}
		resetAt := -1
		if round%3 == 2 {
			resetAt = rng.Intn(a.Len())
		}
		var gotA, gotB []popped
		last := 0.0
		for pops := 0; a.Len() > 0; pops++ {
			if pops == resetAt {
				a.Reset()
				b.Reset()
				break
			}
			if rng.Intn(2) == 0 {
				offer(rng.Intn(n), last+float64(rng.Intn(keys)))
			}
			if b.ties() > 1 {
				tiedPops++
			}
			va, ka := a.Pop()
			vb, kb := b.Pop()
			if ka != kb || ka < last {
				t.Fatalf("round %d pop %d: popped key %v, naive %v, previous %v", round, pops, ka, kb, last)
			}
			last = ka
			gotA = append(gotA, popped{va, ka})
			gotB = append(gotB, popped{vb, kb})
			if a.Len() != b.n {
				t.Fatalf("round %d pop %d: Len %d, naive %d", round, pops, a.Len(), b.n)
			}
		}
		if resetAt >= 0 {
			for v := 0; v < n; v++ {
				if a.Contains(v) {
					t.Fatalf("round %d: item %d still in the heap after Reset", round, v)
				}
			}
			if a.Len() != 0 {
				t.Fatalf("round %d: Len %d after Reset", round, a.Len())
			}
			continue
		}
		for _, got := range [][]popped{gotA, gotB} {
			sort.Slice(got, func(i, j int) bool {
				if got[i].item != got[j].item {
					return got[i].item < got[j].item
				}
				return got[i].key < got[j].key
			})
		}
		for i := range gotA {
			if gotA[i] != gotB[i] {
				t.Fatalf("round %d: popped multisets differ at %d: %v vs %v", round, i, gotA[i], gotB[i])
			}
		}
	}
	if tiedPops < 1000 {
		t.Fatalf("only %d pops chose among tied keys; the test no longer exercises ties", tiedPops)
	}
}

func TestIndexedMinHeapQuickProperty(t *testing.T) {
	// Property: draining the heap yields keys in non-decreasing order.
	f := func(keys []float64) bool {
		if len(keys) == 0 {
			return true
		}
		if len(keys) > 512 {
			keys = keys[:512]
		}
		for i, k := range keys {
			if k != k { // NaN keys are out of contract
				keys[i] = 0
			}
		}
		h := NewIndexedMinHeap(len(keys))
		for i, k := range keys {
			h.Push(i, k)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
