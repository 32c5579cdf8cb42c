package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/metric"
)

// testMetrics builds the cross-family metric instance set the equivalence
// tests sweep: Euclidean point sets (uniform, clustered, multi-scale),
// explicit distance matrices, and graph-induced shortest-path metrics.
func testMetrics(tb testing.TB) map[string]metric.Metric {
	tb.Helper()
	rng := rand.New(rand.NewSource(19))
	out := map[string]metric.Metric{
		"euclidean-uniform-2d": metric.MustEuclidean(gen.UniformPoints(rng, 60, 2)),
		"euclidean-uniform-5d": metric.MustEuclidean(gen.UniformPoints(rng, 40, 5)),
		"euclidean-clustered":  metric.MustEuclidean(gen.ClusteredPoints(rng, 50, 2, 5, 0.02)),
		"euclidean-circle":     metric.MustEuclidean(gen.CirclePoints(48)),
		"euclidean-expline":    metric.MustEuclidean(gen.ExponentialLine(24)),
	}
	ring, err := gen.UnboundedDegreeMetric(3, 8, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	out["matrix-ring-gadget"] = ring
	g := gen.ErdosRenyi(rng, 45, 0.15, 0.5, 10)
	induced, err := metric.FromGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	out["matrix-graph-induced"] = induced
	return out
}

// TestGreedyMetricFastParallelEquivalence asserts the batched metric engine
// is bit-identical to the serial cached-bound reference across metric
// families, stretches, worker counts, and batch widths — and that both
// agree with the naive greedy over the metric's complete graph, a third,
// fully independent code path.
func TestGreedyMetricFastParallelEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4, 8, runtime.GOMAXPROCS(0)}
	stretches := []float64{1, 1.2, 1.5, 2, 3}
	for name, m := range testMetrics(t) {
		for _, stretch := range stretches {
			want, err := GreedyMetricFastSerial(m, stretch)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := GreedyGraph(metric.CompleteGraph(m), stretch)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, fmt.Sprintf("%s/t=%v/naive", name, stretch), want, naive)
			for _, workers := range workerCounts {
				got, err := GreedyMetricFastParallel(m, stretch, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/t=%v/w=%d", name, stretch, workers)
				equalResults(t, label, want, got)
			}
			// Pathological batch widths must not change decisions.
			for _, batch := range []int{1, 7, 100000} {
				got, err := GreedyMetricFastParallelOpts(m, stretch, Options{Workers: 4, BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/t=%v/batch=%d", name, stretch, batch)
				equalResults(t, label, want, got)
			}
		}
	}
}

// TestGreedyMetricFastParallelDeterminism runs the engine repeatedly on one
// instance and demands identical output every time (the row-refresh pool
// must not leak scheduling nondeterminism into decisions).
func TestGreedyMetricFastParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 90, 2))
	first, err := GreedyMetricFastParallel(m, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := GreedyMetricFastParallel(m, 1.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "rerun", first, again)
	}
}

// TestGreedyMetricRoutingIdentity checks the public entry points:
// GreedyMetric and GreedyMetricFast both route through the batched engine
// and must still match the serial reference exactly.
func TestGreedyMetricRoutingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 70, 2))
	for _, stretch := range []float64{1.2, 1.5, 2} {
		want, err := GreedyMetricFastSerial(m, stretch)
		if err != nil {
			t.Fatal(err)
		}
		viaMetric, err := GreedyMetric(m, stretch)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("GreedyMetric/t=%v", stretch), want, viaMetric)
		viaFast, err := GreedyMetricFast(m, stretch)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("GreedyMetricFast/t=%v", stretch), want, viaFast)
	}
}

// TestGreedyMetricFastParallelStats sanity-checks the engine counters:
// every examined pair is accounted for exactly once and the refresh
// counters are plausible.
func TestGreedyMetricFastParallelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 80, 2))
	for _, workers := range []int{1, 4} {
		var stats Stats
		res, err := GreedyMetricFastParallelOpts(m, 1.5, Options{Workers: workers, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		total := stats.CachedSkips + stats.CertifiedSkips + stats.SerialSkips + stats.Kept
		if total != res.EdgesExamined {
			t.Fatalf("w=%d: stats don't cover scan: cached %d + certified %d + serial %d + kept %d = %d, examined %d",
				workers, stats.CachedSkips, stats.CertifiedSkips, stats.SerialSkips, stats.Kept, total, res.EdgesExamined)
		}
		if stats.Kept != len(res.Edges) {
			t.Fatalf("w=%d: Kept = %d, want %d", workers, stats.Kept, len(res.Edges))
		}
		if stats.FinalBatchSize == 0 {
			t.Fatalf("w=%d: implausible stats: %+v", workers, stats)
		}
		if workers > 1 && (stats.Batches == 0 || stats.ParallelRefreshes == 0) {
			t.Fatalf("w=%d: parallel engine did no batched work: %+v", workers, stats)
		}
	}
}

// TestGreedyMetricFastParallelEdgeCases covers empty and trivial inputs and
// stretch validation.
func TestGreedyMetricFastParallelEdgeCases(t *testing.T) {
	for _, workers := range []int{1, 4} {
		empty := metric.MustEuclidean(nil)
		res, err := GreedyMetricFastParallel(empty, 2, workers)
		if err != nil || res.Size() != 0 {
			t.Fatalf("empty metric: res=%+v err=%v", res, err)
		}
		single := metric.MustEuclidean([][]float64{{0, 0}})
		res, err = GreedyMetricFastParallel(single, 2, workers)
		if err != nil || res.Size() != 0 || res.N != 1 {
			t.Fatalf("single point: res=%+v err=%v", res, err)
		}
		two := metric.MustEuclidean([][]float64{{0, 0}, {1, 0}})
		res, err = GreedyMetricFastParallel(two, 2, workers)
		if err != nil || res.Size() != 1 {
			t.Fatalf("two points: res=%+v err=%v", res, err)
		}
	}
	m := metric.MustEuclidean([][]float64{{0}, {1}, {2}})
	if _, err := GreedyMetricFastParallel(m, 0.5, 2); err == nil {
		t.Fatal("stretch < 1 accepted")
	}
	if _, err := GreedyMetricFastParallel(m, math.NaN(), 2); err == nil {
		t.Fatal("NaN stretch accepted")
	}
}
