package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
)

// testing.B benchmarks over the greedy engines and their candidate
// supplies, small enough that CI's smoke step (-benchtime=1x) stays
// cheap while still compiling and exercising every engine and supply.

func benchMetric(b *testing.B, n int) metric.Metric {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	return metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
}

func BenchmarkGreedyMetricSerialMaterialized(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastSerial(m, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricStreamed(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricStreamedParallel(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricPairSourceDrain(b *testing.B) {
	m := benchMetric(b, 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := core.NewMetricSource(m, 0)
		for len(src.NextBatch(4096)) > 0 {
		}
	}
}

func BenchmarkIncrementalInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := gen.UniformPoints(rng, 240, 2)
	base := metric.MustEuclidean(pts[:220])
	union := metric.MustEuclidean(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := core.NewIncrementalMetric(base, 1.5, core.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := inc.Insert(union); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyGraphStreamed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyi(rng, 200, 0.2, 0.5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyGraphParallelOpts(g, 3, core.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricHubs(b *testing.B) {
	m := benchMetric(b, 220)
	opts := core.Options{Workers: 1, Hubs: core.DefaultHubs(220)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyGraphHubs(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := gen.ErdosRenyi(rng, 300, 0.15, 0.5, 10)
	opts := core.Options{Workers: 1, Hubs: core.DefaultHubs(300)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyGraphParallelOpts(g, 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalInsertCoalesced(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	pts := gen.UniformPoints(rng, 240, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := core.NewIncrementalMetric(metric.MustEuclidean(pts[:200]), 1.5,
			core.Options{Workers: 1, Hubs: 16})
		if err != nil {
			b.Fatal(err)
		}
		inc.SetPolicy(core.IncrementalPolicy{MinBatch: 8})
		for k := 201; k <= len(pts); k++ {
			if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
				b.Fatal(err)
			}
		}
		inc.Flush()
	}
}
