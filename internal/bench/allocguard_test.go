package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
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
// slow path. It runs at one worker and at the default worker count, the
// one spannerd and the benchmark build with; both hold the supply's two
// in-flight buckets. The test is gated behind ALLOC_GUARD=1 because the
// sampled MemStats probe briefly stops the world and the builds take
// seconds; CI runs it as a dedicated step.
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
	pairs := uint64(n) * (n - 1) / 2
	materializedFloor := 24*pairs + 8*uint64(n)*uint64(n)
	limit := materializedFloor / 5
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var stats core.Stats
			peak, total, err := measureAlloc(func() error {
				res, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: workers, Stats: &stats})
				if err == nil && res.EdgesExamined != n*(n-1)/2 {
					t.Errorf("examined %d of %d pairs", res.EdgesExamined, n*(n-1)/2)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("streamed peak %d B (total %d B), materialized floor %d B, limit %d B, peak bucket %d pairs, %d bound rows",
				peak, total, materializedFloor, limit, stats.PeakBucketPairs, stats.RowsAllocated)
			if peak > limit {
				t.Fatalf("streamed n=%d build peaked at %d bytes; regression guard requires <= %d (materialized floor %d / 5)",
					n, peak, limit, materializedFloor)
			}
		})
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

// measureAlloc runs f once and reports its heap cost: peak is the highest
// heap occupancy observed above the pre-run baseline (sampled every
// millisecond plus a final reading, so short transients are approximated,
// not exact), and total is the cumulative allocation volume
// (MemStats.TotalAlloc delta). The runtime is GC'd before the run so the
// baseline is live data only. Memory probes run separately from timing
// repetitions: the sampler's ReadMemStats calls briefly stop the world and
// would skew wall-clock medians.
func measureAlloc(f func() error) (peak, total uint64, err error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	stop := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var high uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peakCh <- high
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > high {
					high = ms.HeapAlloc
				}
			}
		}
	}()

	err = f()

	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	close(stop)
	high := <-peakCh
	if final.HeapAlloc > high {
		high = final.HeapAlloc
	}
	if high > base.HeapAlloc {
		peak = high - base.HeapAlloc
	}
	total = final.TotalAlloc - base.TotalAlloc
	return peak, total, err
}
