package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
)

// equalResults fails the test unless a and b agree on every observable
// field: edge sequence, total weight (bit-identical), vertex count, and
// examined-edge count.
func equalResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: N mismatch: %d vs %d", label, a.N, b.N)
	}
	if a.EdgesExamined != b.EdgesExamined {
		t.Fatalf("%s: EdgesExamined mismatch: %d vs %d", label, a.EdgesExamined, b.EdgesExamined)
	}
	if a.Weight != b.Weight {
		t.Fatalf("%s: Weight mismatch: %v vs %v", label, a.Weight, b.Weight)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("%s: size mismatch: %d vs %d edges", label, len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, i, a.Edges[i], b.Edges[i])
		}
	}
}

// testGraphs builds the cross-family instance set the equivalence tests
// sweep: random sparse/dense, geometric, structured, and multi-scale.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	out := map[string]*graph.Graph{
		"erdos-renyi-sparse": gen.ErdosRenyi(rng, 120, 0.05, 0.5, 10),
		"erdos-renyi-dense":  gen.ErdosRenyi(rng, 80, 0.5, 0.5, 10),
		"grid":               gen.WeightedPerturbation(rng, gen.Grid(12, 10), 0.3),
		"hypercube":          gen.WeightedPerturbation(rng, gen.Hypercube(7), 0.2),
		"petersen":           gen.Petersen(),
	}
	geo, _ := gen.RandomGeometric(rng, 150, 0.2)
	out["geometric"] = geo
	m := metric.MustEuclidean(gen.UniformPoints(rng, 60, 2))
	out["complete-euclidean"] = metric.CompleteGraph(m)
	return out
}

// TestGreedyGraphParallelEquivalence asserts the batched-parallel engine is
// bit-identical to the sequential GreedyGraph across graph families,
// stretches, worker counts, and batch widths.
func TestGreedyGraphParallelEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4, 8, runtime.GOMAXPROCS(0)}
	stretches := []float64{1, 1.5, 2, 3, 5}
	for name, g := range testGraphs(t) {
		for _, stretch := range stretches {
			want, err := GreedyGraph(g, stretch)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				got, err := GreedyGraphParallelOpts(g, stretch, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/t=%v/w=%d", name, stretch, workers)
				equalResults(t, label, want, got)
			}
			// Pathological batch widths must not change decisions.
			for _, batch := range []int{1, 7, 100000} {
				got, err := GreedyGraphParallelOpts(g, stretch, Options{Workers: 4, BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/t=%v/batch=%d", name, stretch, batch)
				equalResults(t, label, want, got)
			}
		}
	}
}

// TestGreedyGraphParallelDeterminism runs the engine repeatedly on one
// instance and demands identical output every time (the worker pool must
// not leak scheduling nondeterminism into decisions).
func TestGreedyGraphParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.ErdosRenyi(rng, 150, 0.2, 0.5, 10)
	first, err := GreedyGraphParallelOpts(g, 3, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := GreedyGraphParallelOpts(g, 3, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "rerun", first, again)
	}
}

// TestGreedyMetricMatchesGraphEngine cross-checks the two parallel engines:
// the metric greedy (cached-bound row refreshes) against the batched graph
// engine run on the metric's complete distance graph (bounded bidirectional
// searches) — completely disjoint query code paths that must produce the
// same spanner.
func TestGreedyMetricMatchesGraphEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 70, 2))
	for _, stretch := range []float64{1.2, 1.5, 2} {
		a, err := GreedyMetricFastParallelOpts(m, stretch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := GreedyGraphParallelOpts(metric.CompleteGraph(m), stretch, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Edges) != len(b.Edges) || a.Weight != b.Weight {
			t.Fatalf("t=%v: metric and graph engines diverged: %d/%v vs %d/%v edges/weight",
				stretch, len(a.Edges), a.Weight, len(b.Edges), b.Weight)
		}
	}
}

// TestGreedyGraphParallelStats sanity-checks the engine counters: every
// examined edge is accounted for exactly once.
func TestGreedyGraphParallelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.ErdosRenyi(rng, 100, 0.3, 0.5, 10)
	var stats Stats
	res, err := GreedyGraphParallelOpts(g, 3, Options{Workers: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	total := stats.CertifiedSkips + stats.SerialSkips + stats.Kept
	if total != res.EdgesExamined {
		t.Fatalf("stats don't cover scan: certified %d + serial %d + kept %d = %d, examined %d",
			stats.CertifiedSkips, stats.SerialSkips, stats.Kept, total, res.EdgesExamined)
	}
	if stats.Kept != len(res.Edges) {
		t.Fatalf("Kept = %d, want %d", stats.Kept, len(res.Edges))
	}
	if stats.Batches == 0 || stats.FinalBatchSize == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// TestGraphEngineCountsPinned pins the one-shot graph engine's work on
// one instance (Erdős–Rényi n=400, p=0.1, weights U[0.5, 10], t=3, hubs
// off, the build-graph workload's shape) at two workers and at one: the
// output digest and every Stats counter must equal the values recorded
// here. RefreshTouched counts the vertices the decision searches
// labelled, so it pins the volume of the bidirectional certification
// kernel as well as its answers. CI runs this under the race detector
// three times: the counts must not depend on how the workers are
// scheduled.
func TestGraphEngineCountsPinned(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(400)), 400, 0.1, 0.5, 10)
	const digest = 0x458bdc29052ce67
	for _, c := range []struct {
		workers int
		want    Stats
	}{
		{2, Stats{Batches: 37, CertifiedSkips: 7104, SerialSkips: 7, Kept: 796, RefreshTouched: 361698,
			PeakBucketPairs: 7907, SupplyPasses: 2, SupplyEvaluated: 15814, FinalBatchSize: 4096}},
		{1, Stats{Batches: 248, SerialSkips: 7111, Kept: 796, RefreshTouched: 339627,
			PeakBucketPairs: 7907, SupplyPasses: 2, SupplyEvaluated: 15814, FinalBatchSize: 32}},
	} {
		var st Stats
		res, err := GreedyGraphParallelOpts(g, 3, Options{Workers: c.workers, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if d := ResultDigest(res); d != digest {
			t.Errorf("workers=%d: digest %#x, want %#x", c.workers, d, uint64(digest))
		}
		if !reflect.DeepEqual(st, c.want) {
			t.Errorf("workers=%d: stats\n%+v\nwant\n%+v", c.workers, st, c.want)
		}
	}
}

// TestGreedyGraphParallelEdgeCases covers empty and trivial inputs.
func TestGreedyGraphParallelEdgeCases(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := GreedyGraphParallelOpts(graph.New(0), 2, Options{Workers: workers})
		if err != nil || res.Size() != 0 {
			t.Fatalf("empty graph: res=%+v err=%v", res, err)
		}
		res, err = GreedyGraphParallelOpts(graph.New(5), 2, Options{Workers: workers})
		if err != nil || res.Size() != 0 || res.N != 5 {
			t.Fatalf("edgeless graph: res=%+v err=%v", res, err)
		}
	}
	if _, err := GreedyGraphParallelOpts(graph.New(3), 0.5, Options{Workers: 2}); err == nil {
		t.Fatal("stretch < 1 accepted")
	}
	if _, err := GreedyGraphParallelOpts(graph.New(3), math.NaN(), Options{Workers: 2}); err == nil {
		t.Fatal("NaN stretch accepted")
	}
}
