package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
)

// prefixMetric restricts a metric to its first n points — the sub-metric
// an incremental build starts from. Distances delegate to the parent, so
// they are bitwise identical to the union's.
type prefixMetric struct {
	m metric.Metric
	n int
}

// mustResult flushes and returns the maintained result, failing the test
// on a replay error (none is expected in tests without a context, budget,
// or injected fault).
func mustResult(t testing.TB, s *IncrementalSpanner) *Result {
	t.Helper()
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

func (p prefixMetric) N() int                { return p.n }
func (p prefixMetric) Dist(i, j int) float64 { return p.m.Dist(i, j) }

// subMetric returns the first-k-points restriction of m, preserving the
// concrete type for Euclidean metrics so the incremental path exercises
// the grid-bucketed supply exactly like a from-scratch build would.
func subMetric(m metric.Metric, k int) metric.Metric {
	if eu, ok := m.(*metric.Euclidean); ok {
		pts := make([][]float64, k)
		for i := range pts {
			pts[i] = eu.Point(i)
		}
		return metric.MustEuclidean(pts)
	}
	return prefixMetric{m: m, n: k}
}

// insertSchedule splits the range (start, n] into batch sizes covering the
// interesting shapes: single-point inserts and wider batches.
func insertSchedule(start, n int) []int {
	var ks []int
	k := start
	step := 1
	for k < n {
		k += step
		if k > n {
			k = n
		}
		ks = append(ks, k)
		step = step*3 + 1 // 1, 4, 13, ... mixes singletons and batches
	}
	return ks
}

// TestIncrementalMetricMatchesFromScratch is the tentpole equivalence
// property: growing a spanner by point insertions must reproduce, bit for
// bit, a from-scratch greedy build on the union — across Euclidean,
// matrix, and graph-induced metrics, worker counts, batch widths, bucket
// caps, and insertion batch shapes.
func TestIncrementalMetricMatchesFromScratch(t *testing.T) {
	for name, m := range testMetrics(t) {
		n := m.N()
		for _, stretch := range []float64{1.3, 2} {
			for _, opts := range []Options{
				{Workers: 1},
				{Workers: 4},
				{Workers: 3, BatchSize: 9, BucketPairs: 41},
			} {
				start := n / 3
				probe := &replayProbe{}
				inc, err := NewIncrementalMetric(subMetric(m, start), stretch, probe.options(opts))
				if err != nil {
					t.Fatal(err)
				}
				probe.inc = audited(inc)
				for _, k := range insertSchedule(start, n) {
					if err := inc.Insert(subMetric(m, k)); err != nil {
						t.Fatal(err)
					}
					probe.check(t, fmt.Sprintf("%s/t=%v/w=%d/k=%d", name, stretch, opts.Workers, k))
					want, err := GreedyMetricFastParallelOpts(subMetric(m, k), stretch, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/t=%v/w=%d/k=%d", name, stretch, opts.Workers, k)
					equalResults(t, label, want, mustResult(t, inc))
				}
				// Final state also matches the serial dense-matrix
				// reference, a fully independent code path.
				ref, err := GreedyMetricFastSerial(subMetric(m, n), stretch)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, fmt.Sprintf("%s/t=%v/serial-ref", name, stretch), ref, mustResult(t, inc))
			}
		}
	}
}

// TestIncrementalMetricPermutedInsertionOrders inserts the same point set
// in many different orders; each order must match the from-scratch build
// on that order's indexing.
func TestIncrementalMetricPermutedInsertionOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	base := gen.UniformPoints(rng, 36, 2)
	for trial := 0; trial < 6; trial++ {
		pts := make([][]float64, len(base))
		copy(pts, base)
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		m := metric.MustEuclidean(pts)
		start := 12 + rng.Intn(12)
		inc, err := NewIncrementalMetric(subMetric(m, start), 1.5, Options{Workers: 1 + trial%4})
		if err != nil {
			t.Fatal(err)
		}
		k := start
		for k < len(pts) {
			k += 1 + rng.Intn(7)
			if k > len(pts) {
				k = len(pts)
			}
			if err := inc.Insert(subMetric(m, k)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := GreedyMetricFastParallelOpts(m, 1.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("permutation %d", trial), want, mustResult(t, inc))
	}
}

// TestIncrementalMetricTies grows a spanner over integer grid points:
// massed distance ties, so inserted pairs repeatedly splice into the
// middle of equal-weight runs and the cut lands inside tie groups.
func TestIncrementalMetricTies(t *testing.T) {
	var pts [][]float64
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	// Extra grid rows keep every inserted distance tied with existing ones.
	pts = append(pts, []float64{5, 2}, []float64{5, 0}, []float64{0, 5})
	m := metric.MustEuclidean(pts)
	for _, workers := range []int{1, 4} {
		inc, err := NewIncrementalMetric(subMetric(m, 10), 1.4, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{11, 18, 25, 26, len(pts)} {
			if err := inc.Insert(subMetric(m, k)); err != nil {
				t.Fatal(err)
			}
			want, err := GreedyMetricFastParallelOpts(subMetric(m, k), 1.4, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, fmt.Sprintf("grid/w=%d/k=%d", workers, k), want, mustResult(t, inc))
		}
	}
}

// TestIncrementalMetricInfiniteWeights grows the custom metric with a +Inf
// distance sentinel: the infinite pair must stream exactly once, last, in
// the replay too.
func TestIncrementalMetricInfiniteWeights(t *testing.T) {
	full := infMetric{n: 12}
	inc, err := NewIncrementalMetric(prefixMetric{m: full, n: 7}, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{9, 12} {
		if err := inc.Insert(prefixMetric{m: full, n: k}); err != nil {
			t.Fatal(err)
		}
		want, err := GreedyMetricFastSerial(prefixMetric{m: full, n: k}, 2)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("inf/k=%d", k), want, mustResult(t, inc))
	}
	if mustResult(t, inc).EdgesExamined != 12*11/2 {
		t.Fatalf("examined %d pairs, want %d (the +Inf pair included)", mustResult(t, inc).EdgesExamined, 12*11/2)
	}
}

// TestIncrementalGraphMatchesFromScratch is the graph-mode equivalence:
// growing a spanner by edge insertions must reproduce a from-scratch
// greedy build on the grown graph across the test families.
func TestIncrementalGraphMatchesFromScratch(t *testing.T) {
	for name, g := range testGraphs(t) {
		edges := g.Edges()
		for _, stretch := range []float64{1.5, 3} {
			for _, workers := range []int{1, 4} {
				start := len(edges) / 2
				g0 := graph.New(g.N())
				for _, e := range edges[:start] {
					g0.MustAddEdge(e.U, e.V, e.W)
				}
				inc, err := NewIncrementalGraph(g0, stretch, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				k := start
				for k < len(edges) {
					next := k + 1 + (k-start)*2
					if next > len(edges) {
						next = len(edges)
					}
					if err := inc.InsertEdges(edges[k:next]...); err != nil {
						t.Fatal(err)
					}
					k = next
				}
				want, err := GreedyGraphParallelOpts(g, stretch, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, fmt.Sprintf("%s/t=%v/w=%d", name, stretch, workers), want, mustResult(t, inc))
			}
		}
	}
}

// TestIncrementalReplaySkipsPreservedWork pins the cost story: inserting a
// far-away point cuts the scan after every existing candidate, so the
// replay preserves the whole spanner and re-runs far fewer Dijkstra
// refreshes than a from-scratch build on the union.
func TestIncrementalReplaySkipsPreservedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pts := gen.UniformPoints(rng, 80, 2)
	m := metric.MustEuclidean(pts)
	var fullStats Stats
	if _, err := GreedyMetricFastParallelOpts(withPoint(m, []float64{25, 25}), 1.5,
		Options{Workers: 1, Stats: &fullStats}); err != nil {
		t.Fatal(err)
	}
	var incStats Stats
	inc, err := NewIncrementalMetric(m, 1.5, Options{Workers: 1, Stats: &incStats})
	if err != nil {
		t.Fatal(err)
	}
	// A distant point: every new pair is heavier than all existing pairs,
	// so the cut lands after the whole previous scan.
	if err := inc.Insert(withPoint(m, []float64{25, 25})); err != nil {
		t.Fatal(err)
	}
	if got := mustResult(t, inc).Size(); got == 0 {
		t.Fatal("far point produced no edges")
	}
	fullRefreshes := fullStats.SerialRefreshes + fullStats.ParallelRefreshes
	incRefreshes := incStats.SerialRefreshes + incStats.ParallelRefreshes
	if incRefreshes*2 >= fullRefreshes {
		t.Fatalf("replay refreshed %d rows, want well below the from-scratch %d", incRefreshes, fullRefreshes)
	}
}

// TestIncrementalCachedRowsSurvive pins the insertion-soundness invariant
// in action: on a path metric, every bound row is last proven against the
// weight-1 path edges — the prefix a heavier insertion preserves — so the
// exact replay re-examines the heavy old pairs but certifies them straight
// from the surviving cache, with no refresh at all for pairs between old
// points. The exact replay is what every non-Euclidean metric runs, so the
// same points behind an opaque metric pin it; on the Euclidean metric
// itself the replay certifier exempts those pairs before the cache is
// consulted, and must refresh no more.
func TestIncrementalCachedRowsSurvive(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	m := metric.MustEuclidean(pts)
	grown := withPoint(m, []float64{40.7})
	for _, tc := range []struct {
		name        string
		base, union metric.Metric
		euclidean   bool
	}{
		{"exact", prefixMetric{m: m, n: m.N()}, prefixMetric{m: grown, n: grown.N()}, false},
		{"euclidean", m, grown, true},
	} {
		var incStats Stats
		inc, err := NewIncrementalMetric(tc.base, 1.1, Options{Workers: 1, Stats: &incStats})
		if err != nil {
			t.Fatal(err)
		}
		if mustResult(t, inc).Size() != 39 {
			t.Fatalf("%s: path spanner has %d edges, want 39", tc.name, mustResult(t, inc).Size())
		}
		// The new endpoint is 1.7 away: the cut lands above the weight-1
		// path edges, so every old pair with weight >= 2 is re-examined —
		// and must come out of the surviving cached rows (or, on the
		// Euclidean replay, the ellipse exemption), not fresh Dijkstras.
		if err := inc.Insert(tc.union); err != nil {
			t.Fatal(err)
		}
		reexaminedOldPairs := 39 * 38 / 2 // all (i, j) with j - i >= 2
		certified, how := incStats.CachedSkips, "cached"
		if tc.euclidean {
			certified, how = incStats.ExemptSkips, "exempt"
		}
		if certified < reexaminedOldPairs {
			t.Fatalf("%s: only %d %s skips in the replay, want >= %d (every re-examined old pair)",
				tc.name, certified, how, reexaminedOldPairs)
		}
		refreshes := incStats.SerialRefreshes + incStats.ParallelRefreshes
		if refreshes > 40+1 {
			t.Fatalf("%s: replay ran %d refreshes, want at most one per new pair", tc.name, refreshes)
		}
		want, err := GreedyMetricFastSerial(grown, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, tc.name+"/path+heavy-point", want, mustResult(t, inc))
	}
}

// withPoint returns the Euclidean metric of m's points plus p.
func withPoint(m *metric.Euclidean, p []float64) *metric.Euclidean {
	pts := make([][]float64, m.N(), m.N()+1)
	for i := range pts {
		pts[i] = m.Point(i)
	}
	return metric.MustEuclidean(append(pts, p))
}

// TestIncrementalValidation covers the construction and insertion error
// paths, and that a failed insertion leaves the maintained state intact.
func TestIncrementalValidation(t *testing.T) {
	m := metric.MustEuclidean([][]float64{{0, 0}, {1, 0}, {0, 1}})
	if _, err := NewIncrementalMetric(m, 0.5, Options{}); err == nil {
		t.Fatal("bad stretch accepted")
	}
	inc, err := NewIncrementalMetric(m, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Insert(subMetric(m, 2)); err == nil {
		t.Fatal("shrinking union accepted")
	}
	if err := inc.InsertEdges(graph.Edge{U: 0, V: 1, W: 1}); err == nil {
		t.Fatal("InsertEdges accepted on a metric-mode spanner")
	}
	if err := inc.Insert(m); err != nil { // same size: a no-op
		t.Fatal(err)
	}

	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	ginc, err := NewIncrementalGraph(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := mustResult(t, ginc).Size()
	for _, bad := range []graph.Edge{
		{U: 0, V: 3, W: 1},
		{U: 1, V: 1, W: 1},
		{U: 0, V: 2, W: -1},
		{U: 0, V: 2, W: math.Inf(1)},
	} {
		if err := ginc.InsertEdges(graph.Edge{U: 1, V: 2, W: 1}, bad); err == nil {
			t.Fatalf("bad edge %+v accepted", bad)
		}
	}
	if mustResult(t, ginc).Size() != before {
		t.Fatal("failed insertion mutated the maintained spanner")
	}
	if err := ginc.Insert(m); err == nil {
		t.Fatal("Insert accepted on a graph-mode spanner")
	}
	if err := ginc.InsertEdges(); err != nil { // empty batch: a no-op
		t.Fatal(err)
	}
}

// TestIncrementalFromEmpty grows a spanner from zero and one points — the
// degenerate starting states.
func TestIncrementalFromEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	pts := gen.UniformPoints(rng, 20, 2)
	m := metric.MustEuclidean(pts)
	for _, start := range []int{0, 1} {
		inc, err := NewIncrementalMetric(subMetric(m, start), 1.5, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{start + 1, 10, 20} {
			if err := inc.Insert(subMetric(m, k)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := GreedyMetricFastParallelOpts(m, 1.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("start=%d", start), want, mustResult(t, inc))
	}
}

// TestIncrementalResultIsSnapshot pins the Result contract: the value
// returned before an insertion is not mutated by it.
func TestIncrementalResultIsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 30, 2))
	inc, err := NewIncrementalMetric(subMetric(m, 20), 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := mustResult(t, inc)
	size, weight, examined := snap.Size(), snap.Weight, snap.EdgesExamined
	if err := inc.Insert(m); err != nil {
		t.Fatal(err)
	}
	if snap.Size() != size || snap.Weight != weight || snap.EdgesExamined != examined {
		t.Fatal("insertion mutated a previously returned Result")
	}
	if mustResult(t, inc) == snap {
		t.Fatal("insertion did not produce a fresh Result")
	}
}
