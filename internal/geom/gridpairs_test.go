package geom

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

type pairRec struct {
	u, v int
	w    float64
}

func collectPairs(e *GridEnumerator, lo, hi float64) []pairRec {
	var out []pairRec
	e.Pairs(lo, hi, func(u, v int, w float64) {
		out = append(out, pairRec{u, v, w})
	})
	return out
}

func sortPairRecs(ps []pairRec) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].u != ps[j].u {
			return ps[i].u < ps[j].u
		}
		return ps[i].v < ps[j].v
	})
}

func l2(a, b []float64) float64 {
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// brutePairs is the reference enumeration: all i<j pairs with w in [lo, hi)
// (at hi = +Inf, infinite weights included).
func brutePairs(pts [][]float64, lo, hi float64) []pairRec {
	var out []pairRec
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if w := l2(pts[i], pts[j]); graph.WeightInRange(w, lo, hi) {
				out = append(out, pairRec{i, j, w})
			}
		}
	}
	return out
}

func testPointSets(t *testing.T) map[string][][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	randPts := func(n, d int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for k := range p {
				p[k] = rng.Float64()
			}
			pts[i] = p
		}
		return pts
	}
	clustered := randPts(40, 2)
	for i := 20; i < 40; i++ {
		clustered[i][0] = clustered[i][0]*1e-3 + 5
		clustered[i][1] = clustered[i][1]*1e-3 - 5
	}
	return map[string][][]float64{
		"uniform-2d":  randPts(80, 2),
		"uniform-3d":  randPts(50, 3),
		"uniform-5d":  randPts(40, 5),
		"line-1d":     randPts(60, 1),
		"clustered":   clustered,
		"duplicates":  {{0, 0}, {0, 0}, {1, 1}, {1, 1}, {3, 0}},
		"two-points":  {{0, 0, 0}, {1, 2, 2}},
		"collinear-x": {{0, 0}, {1, 0}, {2, 0}, {4, 0}, {8, 0}, {16, 0}},
		// Cells sized to the 2e300 span dwarf the 1e-10 gaps, so the
		// squared range edges underflow in cell units; the pairs across
		// the span weigh +Inf.
		"spread-1d": {{0}, {1e-10}, {3e-10}, {1e300}, {-1e300}},
	}
}

// TestGridEnumeratorMatchesBruteForce checks each weight range against the
// brute-force enumeration: same pairs, same weights, each exactly once.
func TestGridEnumeratorMatchesBruteForce(t *testing.T) {
	for name, pts := range testPointSets(t) {
		e := NewGridEnumerator(pts)
		bounds := []float64{0, 1e-6, 0.05, 0.25, 0.7, 1.1, 2, 8, math.Inf(1)}
		for b := 1; b < len(bounds); b++ {
			lo, hi := bounds[b-1], bounds[b]
			got := collectPairs(e, lo, hi)
			want := brutePairs(pts, lo, hi)
			sortPairRecs(got)
			sortPairRecs(want)
			label := fmt.Sprintf("%s/[%v,%v)", name, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: pair %d: got %+v, want %+v", label, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGridEnumeratorPartitionCoversEveryPairOnce drains a full partition
// of the weight axis and checks the union covers all n(n-1)/2 pairs with
// no duplicates — the exactly-once contract the bucketed candidate source
// relies on.
func TestGridEnumeratorPartitionCoversEveryPairOnce(t *testing.T) {
	for name, pts := range testPointSets(t) {
		e := NewGridEnumerator(pts)
		seen := make(map[[2]int]int)
		bounds := []float64{0, 0.1, 0.5, 1, 4, math.Inf(1)}
		for b := 1; b < len(bounds); b++ {
			e.Pairs(bounds[b-1], bounds[b], func(u, v int, w float64) {
				if u >= v {
					t.Fatalf("%s: unordered pair (%d, %d)", name, u, v)
				}
				seen[[2]int{u, v}]++
			})
		}
		n := len(pts)
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("%s: covered %d of %d pairs", name, len(seen), n*(n-1)/2)
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("%s: pair %v enumerated %d times", name, p, c)
			}
		}
	}
}

// TestGridEnumeratorEmpty covers the trivial inputs.
func TestGridEnumeratorEmpty(t *testing.T) {
	for _, pts := range [][][]float64{nil, {{1, 2}}} {
		e := NewGridEnumerator(pts)
		if got := collectPairs(e, 0, math.Inf(1)); len(got) != 0 {
			t.Fatalf("%d points emitted %d pairs", len(pts), len(got))
		}
	}
}

// TestGridEnumeratorHugeCoordinates pins the overflow guard of the
// annulus pruning: with coordinates near the float64 ceiling the squared
// separation bounds overflow to +Inf, and a 0*Inf comparison would go NaN
// and silently prune cells holding in-range pairs. Every pair the
// brute-force reference finds must still be emitted.
func TestGridEnumeratorHugeCoordinates(t *testing.T) {
	big := math.Ldexp(1, 511)
	pts := [][]float64{{1.9 * big}, {2.1 * big}, {0}}
	e := NewGridEnumerator(pts)
	lo, hi := math.Ldexp(1, 490), math.Ldexp(1, 512)
	want := map[[2]int]bool{}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := Dist(pts[i], pts[j]); d >= lo && d < hi {
				want[[2]int{i, j}] = true
			}
		}
	}
	got := map[[2]int]bool{}
	e.Pairs(lo, hi, func(u, v int, w float64) {
		got[[2]int{u, v}] = true
	})
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pair %v dropped (emitted %v)", p, got)
		}
	}
}
