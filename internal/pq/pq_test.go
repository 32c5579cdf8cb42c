package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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

func TestIndexedMinHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	if got := h.Key(2); got != 5 {
		t.Fatalf("Key(2) = %v, want 5", got)
	}
	v, _ := h.Pop()
	if v != 2 {
		t.Fatalf("Pop = %d, want 2", v)
	}
	// Increasing key must be a no-op.
	h.DecreaseKey(1, 100)
	if got := h.Key(1); got != 20 {
		t.Fatalf("Key(1) = %v after bogus decrease, want 20", got)
	}
	// DecreaseKey on an absent item must be a no-op.
	h.DecreaseKey(4, 1)
	if h.Contains(4) {
		t.Fatal("DecreaseKey inserted absent item")
	}
}

func TestIndexedMinHeapPushDuplicate(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(1, 10)
	h.Push(1, 4) // acts as DecreaseKey
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
// pops.
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
				a.DecreaseKey(v, k)
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
