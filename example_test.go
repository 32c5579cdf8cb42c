package spanner_test

import (
	"fmt"
	"os"
	"path/filepath"

	spanner "repro"
)

// ExampleGreedy builds the greedy 2-spanner of a small weighted graph:
// the unit square survives, and the heavier diagonal is pruned because the
// two-hop path 0-1-2 already realizes stretch 2/1.5 <= 2.
func ExampleGreedy() {
	g := spanner.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 2, 1.5)
	res, err := spanner.Greedy(g, 2)
	if err != nil {
		panic(err)
	}
	for _, e := range res.Edges {
		fmt.Printf("%d-%d w=%g\n", e.U, e.V, e.W)
	}
	fmt.Printf("size=%d weight=%g\n", res.Size(), res.Weight)
	// Output:
	// 0-1 w=1
	// 0-3 w=1
	// 1-2 w=1
	// 2-3 w=1
	// size=4 weight=4
}

// ExampleGreedyParallelOpts runs the batched-parallel graph engine with
// an explicit worker count and shows its defining property: the output is
// bit-identical for any worker count, and so to the sequential scan.
func ExampleGreedyParallelOpts() {
	g := spanner.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 2, 1.5)
	seq, err := spanner.GreedyParallelOpts(g, 2, spanner.ParallelOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	par, err := spanner.GreedyParallelOpts(g, 2, spanner.ParallelOptions{Workers: 4})
	if err != nil {
		panic(err)
	}
	identical := seq.Size() == par.Size() && seq.Weight == par.Weight
	for i := range seq.Edges {
		identical = identical && seq.Edges[i] == par.Edges[i]
	}
	fmt.Println("identical output:", identical)
	// Output:
	// identical output: true
}

// ExampleGreedyMetric spans a finite metric space — four points on a
// line — with the cached-bound path-greedy: only the consecutive gaps are
// kept, since every longer pair is 2-spanned by the chain between them.
func ExampleGreedyMetric() {
	m, err := spanner.NewEuclidean([][]float64{{0}, {1}, {2}, {4}})
	if err != nil {
		panic(err)
	}
	res, err := spanner.GreedyMetric(m, 2)
	if err != nil {
		panic(err)
	}
	for _, e := range res.Edges {
		fmt.Printf("%d-%d w=%g\n", e.U, e.V, e.W)
	}
	// Output:
	// 0-1 w=1
	// 1-2 w=1
	// 2-3 w=2
}

// ExampleGreedyMetricParallelOpts runs the batched cached-bound metric
// engine with an explicit worker count; like the graph engine, its output
// is bit-identical for any worker count, and so to the serial scan.
func ExampleGreedyMetricParallelOpts() {
	m, err := spanner.NewEuclidean([][]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}})
	if err != nil {
		panic(err)
	}
	seq, err := spanner.GreedyMetricParallelOpts(m, 1.5, spanner.MetricParallelOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	par, err := spanner.GreedyMetricParallelOpts(m, 1.5, spanner.MetricParallelOptions{Workers: 4})
	if err != nil {
		panic(err)
	}
	identical := seq.Size() == par.Size() && seq.Weight == par.Weight
	for i := range seq.Edges {
		identical = identical && seq.Edges[i] == par.Edges[i]
	}
	fmt.Printf("size=%d identical=%v\n", par.Size(), identical)
	// Output:
	// size=4 identical=true
}

// ExampleGreedyMetricParallelOpts_hubs enables the hub-label
// certification fast path: the Hubs option maintains k landmark distance
// arrays over the growing spanner and answers most skip certifications
// from the triangle-inequality upper bound min_h d(u,h)+d(h,v) instead of
// running a Dijkstra. Hub bounds only ever overestimate spanner
// distances, so a hub-certified skip is a decision the exact engine would
// also make — the output is bit-identical with hubs on or off, at any k.
func ExampleGreedyMetricParallelOpts_hubs() {
	pts := make([][]float64, 0, 64)
	for i := 0; i < 64; i++ {
		pts = append(pts, []float64{float64(i % 8), float64(i / 8)})
	}
	m, err := spanner.NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	plain, err := spanner.GreedyMetricParallelOpts(m, 1.5, spanner.MetricParallelOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	var stats spanner.MetricParallelStats
	hubbed, err := spanner.GreedyMetricParallelOpts(m, 1.5, spanner.MetricParallelOptions{
		Workers: 1,
		Hubs:    spanner.DefaultHubs(len(pts)),
		Stats:   &stats,
	})
	if err != nil {
		panic(err)
	}
	identical := plain.Size() == hubbed.Size() && plain.Weight == hubbed.Weight
	for i := range plain.Edges {
		identical = identical && plain.Edges[i] == hubbed.Edges[i]
	}
	fmt.Printf("size=%d identical=%v hub-certified=%v\n",
		hubbed.Size(), identical, stats.HubSkips > 0)
	// Output:
	// size=112 identical=true hub-certified=true
}

// ExampleNewIncremental maintains a greedy spanner under point
// insertions: the inserted point is spliced into the greedy scan at its
// weight position and only the disturbed tail is replayed, yet the result
// is bit-identical to rebuilding from scratch on the union.
func ExampleNewIncremental() {
	m, err := spanner.NewEuclidean([][]float64{{0}, {1}, {2}, {4}})
	if err != nil {
		panic(err)
	}
	inc, err := spanner.NewIncremental(m, 2, 4)
	if err != nil {
		panic(err)
	}
	res0, err := inc.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("size=%d\n", res0.Size())

	union, err := spanner.NewEuclidean([][]float64{{0}, {1}, {2}, {4}, {8}})
	if err != nil {
		panic(err)
	}
	if err := inc.Insert(union); err != nil {
		panic(err)
	}
	scratch, err := spanner.GreedyMetric(union, 2)
	if err != nil {
		panic(err)
	}
	res, err := inc.Result()
	if err != nil {
		panic(err)
	}
	identical := res.Size() == scratch.Size() && res.Weight == scratch.Weight
	for i := range scratch.Edges {
		identical = identical && res.Edges[i] == scratch.Edges[i]
	}
	fmt.Printf("size=%d identical=%v\n", res.Size(), identical)
	// Output:
	// size=3
	// size=4 identical=true
}

// ExampleIncremental_Delete removes a point from a maintained spanner:
// the greedy scan is rebased backward to the earliest accepted edge the
// deleted point touched and only the tail is replayed, refreshing the
// cached state proven past that edge, yet the result — densely
// renumbered over the survivors — is bit-identical to rebuilding from
// scratch without the point.
func ExampleIncremental_Delete() {
	pts := [][]float64{{0}, {1}, {2}, {3}, {8}}
	m, err := spanner.NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	inc, err := spanner.NewIncremental(m, 2, 4)
	if err != nil {
		panic(err)
	}
	if err := inc.Delete(2); err != nil { // remove the point at x=2
		panic(err)
	}
	survivors, err := spanner.NewEuclidean([][]float64{{0}, {1}, {3}, {8}})
	if err != nil {
		panic(err)
	}
	scratch, err := spanner.GreedyMetric(survivors, 2)
	if err != nil {
		panic(err)
	}
	res, err := inc.Result()
	if err != nil {
		panic(err)
	}
	identical := res.Size() == scratch.Size() && res.Weight == scratch.Weight
	for i := range scratch.Edges {
		identical = identical && res.Edges[i] == scratch.Edges[i]
	}
	for _, e := range res.Edges {
		fmt.Printf("%d-%d w=%g\n", e.U, e.V, e.W)
	}
	fmt.Printf("identical=%v\n", identical)
	// Output:
	// 0-1 w=1
	// 1-2 w=2
	// 2-3 w=5
	// identical=true
}

// ExampleSave persists a maintained spanner to a versioned snapshot and
// warm-starts a new one from it with Load: the load skips the greedy
// scan entirely, restores the cached certification state, and the
// reloaded spanner keeps accepting dynamic updates — with a result
// bit-identical to the original's.
func ExampleSave() {
	pts := [][]float64{{0}, {1}, {2}, {4}, {8}}
	m, err := spanner.NewEuclidean(pts)
	if err != nil {
		panic(err)
	}
	inc, err := spanner.NewIncremental(m, 2, 1)
	if err != nil {
		panic(err)
	}
	path := filepath.Join(os.TempDir(), "spanner-example.snap")
	defer os.Remove(path)
	if err := spanner.Save(inc, path); err != nil {
		panic(err)
	}
	loaded, err := spanner.Load(path, 1)
	if err != nil {
		panic(err)
	}
	if err := loaded.Delete(2); err != nil { // dynamic ops keep working
		panic(err)
	}
	orig, err := inc.Result()
	if err != nil {
		panic(err)
	}
	res, err := loaded.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("saved size=%d loaded-after-delete size=%d\n", orig.Size(), res.Size())
	// Output:
	// saved size=4 loaded-after-delete size=3
}

// ExampleVerifySpanner audits a constructed spanner against the paper's
// Section 2 definition and reports the worst stretch over the input's
// edges — here the pruned diagonal, detoured by the two-hop unit path.
func ExampleVerifySpanner() {
	g := spanner.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 2, 1.5)
	res, err := spanner.Greedy(g, 2)
	if err != nil {
		panic(err)
	}
	rep, err := spanner.VerifySpanner(res.Graph(), g, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("max stretch %.3f at pair (%d, %d)\n", rep.MaxStretch, rep.WorstU, rep.WorstV)
	// Output:
	// max stretch 1.333 at pair (0, 2)
}
