package spanner

// This file hosts one testing.B benchmark per experiment in DESIGN.md's
// per-experiment index (E1–E10), each regenerating the corresponding
// figure/claim of the paper at reduced scale, plus micro-benchmarks for the
// core constructions. Run the full-scale experiment tables with:
//
//	go run ./cmd/spannerbench -scale full
import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/approx"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
)

func BenchmarkE1Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E1Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2GeneralGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E2GeneralGraphs(bench.Small, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3SelfSpanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E3SelfSpanner(bench.Small, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4DoublingLightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E4DoublingLightness(bench.Small, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ApproxGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E5ApproxGreedy(bench.Small, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E6Comparison(bench.Small, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7MSTContainment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E7MSTContainment(bench.Small, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8LogStretch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E8LogStretch(bench.Small, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9UnboundedDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E9UnboundedDegree(bench.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Lemma11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E10Lemma11(bench.Small, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the core constructions ---

func benchGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.ErdosRenyi(rng, n, 0.2, 0.5, 10)
}

func BenchmarkGreedyGraphN200(b *testing.B) {
	g := benchGraph(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyGraph(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyGraphParallel compares the sequential greedy scan against
// the batched-parallel engine at the acceptance sizes. The n=2000 instance
// uses density 0.05 (~100k candidate edges) so the sequential baseline
// completes in sensible benchmark time; spannerbench -exp greedybench
// records the same comparison in BENCH_greedy.json.
func BenchmarkGreedyGraphParallel(b *testing.B) {
	for _, cfg := range []struct {
		n int
		p float64
	}{{200, 0.2}, {2000, 0.05}} {
		rng := rand.New(rand.NewSource(1))
		g := gen.ErdosRenyi(rng, cfg.n, cfg.p, 0.5, 10)
		b.Run(fmt.Sprintf("n=%d/sequential", cfg.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GreedyGraph(g, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
		workerSet := []int{1, 4}
		if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
			workerSet = append(workerSet, p)
		}
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("n=%d/workers=%d", cfg.n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.GreedyGraphParallelOpts(g, 3, core.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBoundedDistanceQuery isolates the greedy engine's query
// primitive: the same skip-certification queries (endpoints and limit
// t*w of every candidate edge) answered by one-sided bounded Dijkstra
// versus bounded bidirectional search, both against the final greedy
// spanner.
func BenchmarkBoundedDistanceQuery(b *testing.B) {
	g := benchGraph(1000, 4)
	res, err := core.GreedyGraph(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	h := res.Graph()
	queries := g.SortedEdges()
	if len(queries) > 4096 {
		queries = queries[:4096]
	}
	search := graph.NewSearcher(g.N())
	b.Run("unidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := queries[i%len(queries)]
			search.DistanceWithin(h, e.U, e.V, 3*e.W)
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := queries[i%len(queries)]
			search.BidirDistanceWithin(h, e.U, e.V, 3*e.W)
		}
	})
}

func benchMetric(n int, seed int64) Metric {
	rng := rand.New(rand.NewSource(seed))
	return metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
}

func BenchmarkGreedyMetricSerialN128(b *testing.B) {
	m := benchMetric(128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastSerial(m, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricFastN128(b *testing.B) {
	m := benchMetric(128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyMetricFastN512(b *testing.B) {
	m := benchMetric(512, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyMetricFastParallelOpts(m, 1.5, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproxGreedyN512(b *testing.B) {
	m := benchMetric(512, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Greedy(m, approx.Options{Eps: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstraN1000(b *testing.B) {
	g := benchGraph(1000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Dijkstra(i % g.N())
	}
}

func BenchmarkMSTKruskalN1000(b *testing.B) {
	g := benchGraph(1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MSTKruskal()
	}
}

// --- Ablation benchmarks (design-choice probes from DESIGN.md) ---

func BenchmarkA1Deputies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.A1Deputies(bench.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA2BucketWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.A2BucketWidth(bench.Small, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA3Certification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.A3Certification(bench.Small, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E11FaultTolerance(bench.Small, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12GraphFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E12GraphFamilies(bench.Small, 12); err != nil {
			b.Fatal(err)
		}
	}
}
