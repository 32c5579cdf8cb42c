package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
				got, err := GreedyMetricFastParallelOpts(m, stretch, Options{Workers: workers})
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
	first, err := GreedyMetricFastParallelOpts(m, 1.5, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := GreedyMetricFastParallelOpts(m, 1.5, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "rerun", first, again)
	}
}

// TestGreedyMetricRoutingIdentity checks the metric routes the public
// entry points take: the batched engine with zero Options (what
// spanner.GreedyMetric runs) and the fault-tolerant engine at f = 0 must
// both match the serial reference exactly.
func TestGreedyMetricRoutingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := metric.MustEuclidean(gen.UniformPoints(rng, 70, 2))
	for _, stretch := range []float64{1.2, 1.5, 2} {
		want, err := GreedyMetricFastSerial(m, stretch)
		if err != nil {
			t.Fatal(err)
		}
		viaDefault, err := GreedyMetricFastParallelOpts(m, stretch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("GreedyMetricFastParallelOpts/t=%v", stretch), want, viaDefault)
		viaFT, err := FaultTolerantGreedyOpts(m, stretch, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("FaultTolerantGreedyOpts/f=0/t=%v", stretch), want, viaFT)
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
		res, err := GreedyMetricFastParallelOpts(empty, 2, Options{Workers: workers})
		if err != nil || res.Size() != 0 {
			t.Fatalf("empty metric: res=%+v err=%v", res, err)
		}
		single := metric.MustEuclidean([][]float64{{0, 0}})
		res, err = GreedyMetricFastParallelOpts(single, 2, Options{Workers: workers})
		if err != nil || res.Size() != 0 || res.N != 1 {
			t.Fatalf("single point: res=%+v err=%v", res, err)
		}
		two := metric.MustEuclidean([][]float64{{0, 0}, {1, 0}})
		res, err = GreedyMetricFastParallelOpts(two, 2, Options{Workers: workers})
		if err != nil || res.Size() != 1 {
			t.Fatalf("two points: res=%+v err=%v", res, err)
		}
	}
	m := metric.MustEuclidean([][]float64{{0}, {1}, {2}})
	if _, err := GreedyMetricFastParallelOpts(m, 0.5, Options{Workers: 2}); err == nil {
		t.Fatal("stretch < 1 accepted")
	}
	if _, err := GreedyMetricFastParallelOpts(m, math.NaN(), Options{Workers: 2}); err == nil {
		t.Fatal("NaN stretch accepted")
	}
}

// TestMetricEngineCountsPinned pins the one-shot metric engine's work on
// one instance (400 uniform points, t=1.5, DefaultHubs hubs) at two
// workers and at one: the output digest and every Stats counter must
// equal the values recorded here, which the engine produced before its
// refreshes folded only the vertices they reached and its pre-pass read a
// batch's cached bounds in one pass. RowsAllocated may only fall, as it
// did when one-shot builds stopped pre-seeding hub bounds into rows that
// nothing read again. The supply's layout counters (Batches,
// PeakBucketPairs, SupplyPasses) and, at two workers, the skip, refresh
// and hub-query split were re-recorded when the supply stopped merging
// the whole candidate set into one bucket; the digest and Kept did not
// move. CI runs this under the race detector three times: the counts must
// not depend on how the workers are scheduled.
func TestMetricEngineCountsPinned(t *testing.T) {
	m := metric.MustEuclidean(gen.UniformPoints(rand.New(rand.NewSource(400)), 400, 2))
	const digest = 0x4c4436cbdf82f839
	for _, c := range []struct {
		workers int
		want    Stats
	}{
		{2, Stats{Batches: 43, CachedSkips: 39617, CertifiedSkips: 932, SerialSkips: 94, Kept: 742,
			ParallelRefreshes: 1381, SerialRefreshes: 803, RefreshTouched: 103143, RowsAllocated: 399,
			PeakBucketPairs: 37454, SupplyPasses: 5, SupplyEvaluated: 194076, FinalBatchSize: 8192,
			HubQueries: 40183, HubSkips: 38415, HubRelaxed: 43187}},
		{1, Stats{Batches: 63, CachedSkips: 39884, SerialSkips: 680, Kept: 742,
			SerialRefreshes: 1422, RefreshTouched: 82966, RowsAllocated: 399,
			PeakBucketPairs: 37454, SupplyPasses: 5, SupplyEvaluated: 194076, FinalBatchSize: 8192,
			HubQueries: 39916, HubSkips: 38494, HubRelaxed: 50292}},
	} {
		var st Stats
		res, err := GreedyMetricFastParallelOpts(m, 1.5, Options{Workers: c.workers, Hubs: DefaultHubs(m.N()), Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if d := ResultDigest(res); d != digest {
			t.Errorf("workers=%d: digest %#x, want %#x", c.workers, d, uint64(digest))
		}
		if st.RowsAllocated > c.want.RowsAllocated {
			t.Errorf("workers=%d: %d rows allocated, more than %d", c.workers, st.RowsAllocated, c.want.RowsAllocated)
		}
		st.RowsAllocated = c.want.RowsAllocated
		if !reflect.DeepEqual(st, c.want) {
			t.Errorf("workers=%d: stats\n%+v\nwant\n%+v", c.workers, st, c.want)
		}
	}
}
