package bench

import (
	"math/rand"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metric"
	"repro/internal/nettree"
	"repro/internal/verify"
)

// The ablation experiments A1–A3 probe the design choices of the
// approximate-greedy pipeline (README's "Benchmarks and ablations"): the
// deputy degree-reduction in the base spanner, the bucket width mu, and
// the two-tier (cluster-first, exact-fallback) distance certification.

// A1Deputies compares the net-tree base spanner with and without the
// degree-reduction deputies on the unbounded-degree ring gadget and on
// uniform points. Deputies should cap the gadget's hub degree without
// inflating edges on benign inputs.
func A1Deputies(scale Scale) (*Table, error) {
	tab := &Table{
		Title:  "A1 (ablation): deputy degree-reduction in the base spanner",
		Header: []string{"instance", "n", "deputies", "edges", "max degree"},
		Caption: "Deputies bound the hub degree on the ring gadget; on uniform points they\n" +
			"should be inert (the hot-degree threshold never trips).",
	}
	cfgs := [][2]int{{4, 8}}
	if scale == Full {
		cfgs = [][2]int{{4, 8}, {8, 8}}
	}
	const eps = 0.35
	for _, cfg := range cfgs {
		m, err := gen.UnboundedDegreeMetric(cfg[0], cfg[1], 0.1)
		if err != nil {
			return nil, err
		}
		for _, disable := range []bool{false, true} {
			g, _, err := nettree.BaseSpanner(m, nettree.BaseSpannerOptions{Eps: eps, DisableDeputies: disable})
			if err != nil {
				return nil, err
			}
			tab.AddRow("ring gadget", itoa(m.N()), onOff(!disable), itoa(g.M()), itoa(g.MaxDegree()))
		}
	}
	rng := rand.New(rand.NewSource(99))
	n := 100
	if scale == Full {
		n = 300
	}
	mu := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	for _, disable := range []bool{false, true} {
		g, _, err := nettree.BaseSpanner(mu, nettree.BaseSpannerOptions{Eps: eps, DisableDeputies: disable})
		if err != nil {
			return nil, err
		}
		tab.AddRow("uniform 2d", itoa(n), onOff(!disable), itoa(g.M()), itoa(g.MaxDegree()))
	}
	return tab, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// A2BucketWidth sweeps the bucket ratio mu of the approximate-greedy
// simulation: wider buckets mean fewer cluster-graph rebuilds but staler
// cluster radii (built for the bucket floor), trading construction time
// against kept edges.
func A2BucketWidth(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "A2 (ablation): approximate-greedy bucket width mu",
		Header: []string{"n", "mu", "ms", "rebuilds", "edges", "lightness"},
	}
	rng := rand.New(rand.NewSource(seed))
	n := 128
	if scale == Full {
		n = 512
	}
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	for _, mu := range []float64{1.3, 2, 4, 8} {
		start := time.Now()
		res, err := approx.Greedy(m, approx.Options{Eps: 0.5, Mu: mu})
		if err != nil {
			return nil, err
		}
		ms := time.Since(start).Seconds() * 1000
		light, err := verify.MetricLightness(res.Spanner, m)
		if err != nil {
			return nil, err
		}
		tab.AddRow(itoa(n), f2(mu), f2(ms), itoa(res.Stats.ClusterRebuilds),
			itoa(res.Spanner.M()), f2(light))
	}
	return tab, nil
}

// A3Certification splits the approximate-greedy skip decisions between the
// cluster-graph certificate and the exact fallback across cluster radii
// (delta). Larger delta makes the cluster view coarser: cheaper queries,
// fewer certified skips.
func A3Certification(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "A3 (ablation): two-tier certification (cluster radius delta)",
		Header: []string{"n", "delta", "cluster skips", "exact skips", "kept", "ms"},
		Caption: "Skips certified by the coarse cluster view avoid exact searches entirely;\n" +
			"delta tunes how much of the skip load the cluster graph absorbs.",
	}
	rng := rand.New(rand.NewSource(seed))
	n := 128
	if scale == Full {
		n = 512
	}
	m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
	for _, delta := range []float64{0.004, 0.016, 0.0625, 0.25} {
		start := time.Now()
		res, err := approx.Greedy(m, approx.Options{Eps: 0.5, Delta: delta})
		if err != nil {
			return nil, err
		}
		ms := time.Since(start).Seconds() * 1000
		tab.AddRow(itoa(n), f3(delta), itoa(res.Stats.SkippedByCluster),
			itoa(res.Stats.SkippedByExact), itoa(res.Stats.HeavyKept), f2(ms))
	}
	return tab, nil
}

// A4ParallelBatchWidth sweeps the batch width of the batched-parallel
// greedy engine (the graph analogue of A2's bucket ratio): wider batches
// amortize the worker fan-out but test more edges against a staler
// snapshot, pushing them into the serial re-check. Width 0 is the adaptive
// policy, which should land near the best fixed width without tuning.
func A4ParallelBatchWidth(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "A4 (ablation): batched-parallel greedy batch width",
		Header: []string{"n", "m", "batch", "ms", "batches", "certified", "serial skips", "kept", "final width"},
		Caption: "certified = skips proven in parallel against the frozen snapshot; serial skips\n" +
			"fell through to the ordered re-check. batch=adaptive grows/shrinks with the certify rate.",
	}
	rng := rand.New(rand.NewSource(seed))
	n := 150
	if scale == Full {
		n = 800
	}
	g := gen.ErdosRenyi(rng, n, 0.2, 0.5, 10)
	for _, batch := range []int{32, 128, 512, 2048, 0} {
		name := itoa(batch)
		if batch == 0 {
			name = "adaptive"
		}
		var stats core.Stats
		start := time.Now()
		res, err := core.GreedyGraphParallelOpts(g, 3, core.Options{
			Workers: 4, BatchSize: batch, Stats: &stats,
		})
		if err != nil {
			return nil, err
		}
		ms := time.Since(start).Seconds() * 1000
		tab.AddRow(itoa(n), itoa(g.M()), name, f2(ms), itoa(stats.Batches),
			itoa(stats.CertifiedSkips), itoa(stats.SerialSkips), itoa(res.Size()),
			itoa(stats.FinalBatchSize))
	}
	return tab, nil
}

// A5MetricBatchWidth sweeps the batch width of the batched-parallel metric
// engine on a Euclidean point set and a graph-induced distance matrix.
// Wider batches amortize the row-refresh fan-out but certify against a
// staler snapshot, pushing pairs into the serial re-check; width 0 is the
// adaptive policy, which should land near the best fixed width without
// tuning on both metric kinds.
func A5MetricBatchWidth(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "A5 (ablation): batched-parallel metric engine batch width",
		Header: []string{"kind", "n", "batch", "ms", "batches", "cached", "certified", "serial skips", "par refresh", "ser refresh", "kept", "final width"},
		Caption: "cached = skips certified by an existing bound with no search; certified = skips proven\n" +
			"by a parallel row refresh on the frozen snapshot; serial skips fell through to the\n" +
			"ordered re-check. batch=adaptive grows/shrinks with the certify rate.",
	}
	rng := rand.New(rand.NewSource(seed))
	n := 150
	if scale == Full {
		n = 500
	}
	type instance struct {
		kind string
		m    metric.Metric
		t    float64
	}
	instances := []instance{
		{"euclidean", metric.MustEuclidean(gen.UniformPoints(rng, n, 2)), 1.5},
	}
	induced, err := metric.FromGraph(gen.ErdosRenyi(rng, n*2/3, 0.1, 0.5, 10))
	if err != nil {
		return nil, err
	}
	instances = append(instances, instance{"graph-induced", induced, 3})
	for _, inst := range instances {
		for _, batch := range []int{32, 128, 512, 2048, 0} {
			name := itoa(batch)
			if batch == 0 {
				name = "adaptive"
			}
			var stats core.Stats
			start := time.Now()
			_, err := core.GreedyMetricFastParallelOpts(inst.m, inst.t, core.Options{
				Workers: 4, BatchSize: batch, Stats: &stats,
			})
			if err != nil {
				return nil, err
			}
			ms := time.Since(start).Seconds() * 1000
			tab.AddRow(inst.kind, itoa(inst.m.N()), name, f2(ms), itoa(stats.Batches),
				itoa(stats.CachedSkips), itoa(stats.CertifiedSkips), itoa(stats.SerialSkips),
				itoa(stats.ParallelRefreshes), itoa(stats.SerialRefreshes), itoa(stats.Kept),
				itoa(stats.FinalBatchSize))
		}
	}
	return tab, nil
}

// Ablations runs A1–A5 in order.
func Ablations(scale Scale, seed int64) ([]*Table, error) {
	var out []*Table
	t1, err := A1Deputies(scale)
	if err != nil {
		return out, err
	}
	out = append(out, t1)
	t2, err := A2BucketWidth(scale, seed)
	if err != nil {
		return out, err
	}
	out = append(out, t2)
	t3, err := A3Certification(scale, seed+1)
	if err != nil {
		return out, err
	}
	out = append(out, t3)
	t4, err := A4ParallelBatchWidth(scale, seed+2)
	if err != nil {
		return out, err
	}
	out = append(out, t4)
	t5, err := A5MetricBatchWidth(scale, seed+3)
	if err != nil {
		return out, err
	}
	return append(out, t5), nil
}
