package bench

import (
	"math/rand"
	"os"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// TestAllocRegressionGuardMetricN4000 is the memory-regression gate for
// the streamed candidate engine: the n=4000 Euclidean greedy build must
// keep its heap high-water mark at least 5x below the materialized-pairs
// floor — the bytes the classic pipeline provably allocates before its
// first greedy decision (24 bytes per sorted pair plus the 8-byte dense
// bound matrix), computed analytically so the guard never has to run the
// slow path. The test is gated behind ALLOC_GUARD=1 because the sampled
// MemStats probe briefly stops the world and the build takes seconds; CI
// runs it as a dedicated step.
func TestAllocRegressionGuardMetricN4000(t *testing.T) {
	if os.Getenv("ALLOC_GUARD") != "1" {
		t.Skip("set ALLOC_GUARD=1 to run the n=4000 alloc-regression guard")
	}
	// The sampled peak includes uncollected garbage, so it depends on GC
	// pacing; pin the pacer to keep the gate deterministic across Go
	// versions, machines, and GOGC environments (live set during the
	// build is ~45 MB, so default pacing alone could legally double the
	// observed peak and flake the 5x gate).
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	const n = 4000
	rng := rand.New(rand.NewSource(42))
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	var stats core.Stats
	peak, total, err := measureAlloc(func() error {
		res, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: 1, Stats: &stats})
		if err == nil && res.EdgesExamined != n*(n-1)/2 {
			t.Errorf("examined %d of %d pairs", res.EdgesExamined, n*(n-1)/2)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := uint64(n) * (n - 1) / 2
	materializedFloor := 24*pairs + 8*uint64(n)*uint64(n)
	limit := materializedFloor / 5
	t.Logf("streamed peak %d B (total %d B), materialized floor %d B, limit %d B, peak bucket %d pairs, %d bound rows",
		peak, total, materializedFloor, limit, stats.PeakBucketPairs, stats.RowsAllocated)
	if peak > limit {
		t.Fatalf("streamed n=%d build peaked at %d bytes; regression guard requires <= %d (materialized floor %d / 5)",
			n, peak, limit, materializedFloor)
	}
}

// TestStreamedBuildCompletesN20000 demonstrates the scale the streamed
// engine unlocks: an n=20000 Euclidean greedy build, whose
// materialized-pairs path would front ~200M sorted pairs (~4.8 GB) plus a
// 3.2 GB dense bound matrix before the first greedy decision. Gated
// behind STREAM_N20000=1 — it runs for tens of minutes on a small box —
// and asserts completion, full pair coverage, and a peak at least 5x
// below the materialized floor.
func TestStreamedBuildCompletesN20000(t *testing.T) {
	if os.Getenv("STREAM_N20000") != "1" {
		t.Skip("set STREAM_N20000=1 to run the n=20000 streamed build")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(50)) // see the n=4000 guard
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	var stats core.Stats
	start := time.Now()
	peak, total, err := measureAlloc(func() error {
		res, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: 1, Stats: &stats})
		if err == nil {
			if res.EdgesExamined != n*(n-1)/2 {
				t.Errorf("examined %d of %d pairs", res.EdgesExamined, n*(n-1)/2)
			}
			t.Logf("spanner: %d edges, weight %.2f", res.Size(), res.Weight)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := uint64(n) * (n - 1) / 2
	materializedFloor := 24*pairs + 8*uint64(n)*uint64(n)
	t.Logf("n=%d build: %.1fs, peak %.1f MB, total alloc %.1f MB, materialized floor %.1f MB, peak bucket %d pairs, %d bound rows",
		n, time.Since(start).Seconds(), float64(peak)/(1<<20), float64(total)/(1<<20),
		float64(materializedFloor)/(1<<20), stats.PeakBucketPairs, stats.RowsAllocated)
	if peak > materializedFloor/5 {
		t.Fatalf("peak %d exceeds materialized floor %d / 5", peak, materializedFloor)
	}
}
