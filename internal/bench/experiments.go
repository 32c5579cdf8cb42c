package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/approx"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/verify"
)

// Scale selects experiment sizes. Small keeps each experiment under a
// second or two (used by unit tests and testing.B inner loops); Full is
// what `spannerbench -scale full` runs (see README's "Benchmarks and
// ablations").
type Scale int

// Scale values.
const (
	Small Scale = iota + 1
	Full
)

func (s Scale) pick(small, full []int) []int {
	if s == Small {
		return small
	}
	return full
}

// E1Figure1 reproduces Figure 1 of the paper: on the Petersen-graph gadget
// G = H ∪ S, the greedy 3-spanner retains all 15 edges of H while the
// 9-edge star S is itself a valid 3-spanner of G.
func E1Figure1() (*Table, error) {
	tab := &Table{
		Title:  "E1 (Figure 1): greedy is not instance-optimal",
		Header: []string{"construction", "edges", "weight", "H-edges kept", "is 3-spanner"},
		Caption: "Paper: greedy keeps all 15 Petersen edges; the optimal 3-spanner is the 9-edge star.\n" +
			"Existential optimality is untouched: greedy's output equals the greedy spanner of H itself.",
	}
	f1, err := gen.Figure1Gadget(gen.Petersen(), 0, 0.05)
	if err != nil {
		return nil, err
	}
	res, err := core.GreedyGraph(f1.G, 3)
	if err != nil {
		return nil, err
	}
	hEdges := 0
	for _, e := range res.Edges {
		if e.W == 1 {
			hEdges++
		}
	}
	if _, err := verify.Spanner(res.Graph(), f1.G, 3, 1e-9); err != nil {
		return nil, fmt.Errorf("greedy output failed verification: %w", err)
	}
	tab.AddRow("greedy 3-spanner", itoa(res.Size()), f2(res.Weight), itoa(hEdges), "yes")

	// The star: root's unit H-edges plus the weight-(1+eps) star edges.
	star := graph.New(f1.G.N())
	for _, e := range f1.G.Edges() {
		if e.U == f1.Root || e.V == f1.Root {
			star.MustAddEdge(e.U, e.V, e.W)
		}
	}
	starOK := "yes"
	if _, err := verify.Spanner(star, f1.G, 3, 1e-9); err != nil {
		starOK = "no"
	}
	starH := 0
	for _, e := range star.Edges() {
		if e.W == 1 {
			starH++
		}
	}
	tab.AddRow("star S (optimal)", itoa(star.M()), f2(star.Weight()), itoa(starH), starOK)
	return tab, nil
}

// E2GeneralGraphs reproduces the Corollary 4 scaling: greedy
// (2k-1)(1+eps)-spanners on random graphs, reporting edges / n^{1+1/k} and
// lightness / n^{1/k}, which should stay roughly flat as n grows.
func E2GeneralGraphs(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E2 (Corollary 4): greedy size/lightness scaling on general graphs",
		Header: []string{"n", "m", "k", "t", "edges", "edges/n^(1+1/k)", "lightness", "lightness/n^(1/k)", "seq ms", "par ms"},
		Caption: "Corollary 4: greedy (2k-1)(1+eps)-spanner has O(n^{1+1/k}) edges and lightness\n" +
			"O(n^{1/k} eps^{-(3+2/k)}). Normalized columns should stay bounded as n grows.\n" +
			"seq/par ms compare the sequential scan against the batched-parallel engine (same output).",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{50, 100}, []int{100, 200, 400, 800})
	const eps = 0.5
	for _, k := range []int{2, 3, 5} {
		t := float64(2*k-1) * (1 + eps)
		for _, n := range ns {
			g := gen.ErdosRenyi(rng, n, math.Min(1, 8/float64(n)*4), 0.5, 10)
			start := time.Now()
			res, err := core.GreedyGraph(g, t)
			if err != nil {
				return nil, err
			}
			seqMS := time.Since(start).Seconds() * 1000
			start = time.Now()
			par, err := core.GreedyGraphParallelOpts(g, t, core.Options{})
			if err != nil {
				return nil, err
			}
			parMS := time.Since(start).Seconds() * 1000
			if par.Size() != res.Size() || par.Weight != res.Weight {
				return nil, fmt.Errorf("bench: parallel engine diverged on n=%d k=%d", n, k)
			}
			light, err := verify.Lightness(res.Graph(), g)
			if err != nil {
				return nil, err
			}
			normE := float64(res.Size()) / math.Pow(float64(n), 1+1/float64(k))
			normL := light / math.Pow(float64(n), 1/float64(k))
			tab.AddRow(itoa(n), itoa(g.M()), itoa(k), f2(t), itoa(res.Size()), f3(normE), f2(light), f3(normL), f2(seqMS), f2(parMS))
		}
	}
	return tab, nil
}

// E3SelfSpanner audits Lemma 3: on every instance, every edge of the
// greedy output is irreplaceable (no alternative path within t*w in H-e).
func E3SelfSpanner(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E3 (Lemma 3): the greedy spanner is its own unique t-spanner",
		Header: []string{"family", "n", "t", "spanner edges", "removable edges"},
		Caption: "Lemma 3: removing any greedy edge must break the stretch bound;\n" +
			"'removable edges' must be 0 everywhere.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{30}, []int{50, 100, 200})
	for _, n := range ns {
		for _, t := range []float64{1.5, 3, 5} {
			g := gen.ErdosRenyi(rng, n, 0.3, 0.5, 10)
			res, err := core.GreedyGraph(g, t)
			if err != nil {
				return nil, err
			}
			v := core.VerifySelfSpanner(res.Graph(), t)
			tab.AddRow("erdos-renyi", itoa(n), f2(t), itoa(res.Size()), itoa(len(v)))
			if len(v) != 0 {
				return tab, fmt.Errorf("bench: Lemma 3 violated on n=%d t=%v", n, t)
			}
		}
	}
	return tab, nil
}

// E4DoublingLightness reproduces Corollary 10: in doubling metrics the
// greedy (1+eps)-spanner has lightness bounded by a constant independent of
// n (the pre-Gottlieb bound would predict Theta(log n) growth).
func E4DoublingLightness(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E4 (Corollary 10): greedy lightness is constant in doubling metrics",
		Header: []string{"points", "n", "eps", "edges", "edges/n", "lightness", "lightness/log2(n)"},
		Caption: "Corollary 10: lightness is (ddim/eps)^{O(ddim)} — flat in n. The last column\n" +
			"falls as n grows, separating the paper's bound from the old O(log n) one.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{50, 100}, []int{100, 200, 400, 800})
	for _, family := range []string{"uniform2d", "clustered2d"} {
		for _, eps := range []float64{0.5} {
			for _, n := range ns {
				var pts [][]float64
				switch family {
				case "uniform2d":
					pts = gen.UniformPoints(rng, n, 2)
				default:
					pts = gen.ClusteredPoints(rng, n, 2, 8, 0.02)
				}
				m := metric.MustEuclidean(pts)
				res, err := core.GreedyMetricFastParallelOpts(m, 1+eps, core.Options{})
				if err != nil {
					return nil, err
				}
				light, err := verify.MetricLightness(res.Graph(), m)
				if err != nil {
					return nil, err
				}
				tab.AddRow(family, itoa(n), f2(eps), itoa(res.Size()),
					f2(float64(res.Size())/float64(n)), f2(light), f3(light/math.Log2(float64(n))))
			}
		}
	}
	return tab, nil
}

// E5ApproxGreedy reproduces Theorem 6: the approximate-greedy algorithm
// versus the exact greedy on doubling metrics — runtime growth, lightness,
// and degree.
func E5ApproxGreedy(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E5 (Theorem 6): approximate-greedy vs exact greedy in doubling metrics",
		Header: []string{"n", "algo", "ms", "edges", "lightness", "max degree"},
		Caption: "Theorem 6: approximate-greedy runs in near O(n log n) with constant lightness\n" +
			"and degree; exact greedy is near-quadratic. Compare runtime growth rates per doubling.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{64, 128}, []int{128, 256, 512, 1024})
	const eps = 0.5
	for _, n := range ns {
		m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))

		start := time.Now()
		exact, err := core.GreedyMetricFastParallelOpts(m, 1+eps, core.Options{})
		if err != nil {
			return nil, err
		}
		exactMS := time.Since(start).Seconds() * 1000
		lightE, err := verify.MetricLightness(exact.Graph(), m)
		if err != nil {
			return nil, err
		}
		tab.AddRow(itoa(n), "greedy (exact)", f2(exactMS), itoa(exact.Size()), f2(lightE), itoa(exact.MaxDegree()))

		start = time.Now()
		apx, err := approx.Greedy(m, approx.Options{Eps: eps})
		if err != nil {
			return nil, err
		}
		apxMS := time.Since(start).Seconds() * 1000
		lightA, err := verify.MetricLightness(apx.Spanner, m)
		if err != nil {
			return nil, err
		}
		tab.AddRow(itoa(n), "approx-greedy", f2(apxMS), itoa(apx.Spanner.M()), f2(lightA), itoa(apx.Spanner.MaxDegree()))
	}
	return tab, nil
}

// E6Comparison reproduces the [FG05/Far08] comparison the paper cites:
// greedy against Θ-graph, Yao graph, WSPD spanner, and Baswana–Sen on
// uniform planar points — greedy should dominate size and lightness.
func E6Comparison(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E6 ([FG05] comparison): greedy vs popular constructions, 2D uniform points",
		Header: []string{"n", "t", "construction", "ms", "edges", "lightness", "max degree"},
		Caption: "Cited folklore: greedy is ~10x sparser and ~30x lighter than other spanners.\n" +
			"Shapes to check: greedy rows minimize edges and lightness at every (n, t).\n" +
			"greedy (seq) is the cached-bound scan, greedy (par) the batched-parallel engine.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{100}, []int{200, 500})
	for _, n := range ns {
		pts := gen.UniformPoints(rng, n, 2)
		m := metric.MustEuclidean(pts)
		for _, t := range []float64{1.5, 2.0} {
			eps := t - 1
			// addTimed builds via the supplied constructor, timing just the
			// construction; taking the builder as a closure (rather than a
			// shared start-time variable) means a forgotten reset cannot
			// mis-attribute one construction's time to the next.
			addTimed := func(name string, build func() (*graph.Graph, error)) error {
				start := time.Now()
				g, err := build()
				if err != nil {
					return err
				}
				ms := time.Since(start).Seconds() * 1000
				light, lerr := verify.MetricLightness(g, m)
				if lerr != nil {
					return lerr
				}
				tab.AddRow(itoa(n), f2(t), name, f2(ms), itoa(g.M()), f2(light), itoa(g.MaxDegree()))
				return nil
			}
			if err := addTimed("greedy (seq)", func() (*graph.Graph, error) {
				res, err := core.GreedyMetricFastSerial(m, t)
				if err != nil {
					return nil, err
				}
				return res.Graph(), nil
			}); err != nil {
				return nil, err
			}
			if err := addTimed("greedy (par)", func() (*graph.Graph, error) {
				res, err := core.GreedyMetricFastParallelOpts(m, t, core.Options{})
				if err != nil {
					return nil, err
				}
				return res.Graph(), nil
			}); err != nil {
				return nil, err
			}
			// Θ and Yao cone counts chosen to meet stretch t.
			kTheta := conesForTheta(t)
			if err := addTimed(fmt.Sprintf("theta(k=%d)", kTheta), func() (*graph.Graph, error) {
				return baseline.ThetaGraph(pts, kTheta)
			}); err != nil {
				return nil, err
			}
			kYao := conesForYao(t)
			if err := addTimed(fmt.Sprintf("yao(k=%d)", kYao), func() (*graph.Graph, error) {
				return baseline.YaoGraph(pts, kYao)
			}); err != nil {
				return nil, err
			}
			if err := addTimed("wspd", func() (*graph.Graph, error) {
				return baseline.WSPDSpanner(pts, eps)
			}); err != nil {
				return nil, err
			}
			if err := addTimed("gap-greedy", func() (*graph.Graph, error) {
				return baseline.GapGreedy(m, t)
			}); err != nil {
				return nil, err
			}
			// Baswana–Sen with smallest k whose stretch 2k-1 <= ... use
			// k=2 (stretch 3) as the coarsest comparable baseline.
			if err := addTimed("baswana-sen(k=2)", func() (*graph.Graph, error) {
				return baseline.BaswanaSenMetric(rng, m, 2)
			}); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

// conesForTheta returns the smallest cone count k (capped) such that the
// Θ-graph stretch bound 1/(cos θ - sin θ) with θ = 2π/k is at most t.
func conesForTheta(t float64) int {
	for k := 9; k <= 128; k++ {
		theta := 2 * math.Pi / float64(k)
		if s := 1 / (math.Cos(theta) - math.Sin(theta)); s > 0 && s <= t {
			return k
		}
	}
	return 128
}

// conesForYao returns the smallest k with 1/(1-2 sin(π/k)) <= t.
func conesForYao(t float64) int {
	for k := 7; k <= 128; k++ {
		s := 1 / (1 - 2*math.Sin(math.Pi/float64(k)))
		if s > 0 && s <= t {
			return k
		}
	}
	return 128
}

// E7MSTContainment audits Observations 2 and 6 across instance families.
func E7MSTContainment(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E7 (Observations 2, 6): MST containment and MST-weight equality",
		Header: []string{"family", "n", "t", "MST in spanner", "w(MST(G)) = w(MST(M_G))"},
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{25}, []int{50, 120})
	for _, n := range ns {
		for _, t := range []float64{1.2, 2, 4} {
			g := gen.ErdosRenyi(rng, n, 0.3, 0.5, 10)
			res, err := core.GreedyGraph(g, t)
			if err != nil {
				return nil, err
			}
			in := "yes"
			if err := core.ContainsMST(res, g); err != nil {
				in = "NO: " + err.Error()
			}
			eq := "yes"
			if err := verify.SameMSTWeight(g, 1e-9); err != nil {
				eq = "NO: " + err.Error()
			}
			tab.AddRow("erdos-renyi", itoa(n), f2(t), in, eq)
		}
	}
	return tab, nil
}

// E8LogStretch reproduces Corollary 5: at stretch O(log n / delta) the
// greedy spanner collapses to nearly the MST: ~n-1 edges, lightness ~1+delta.
func E8LogStretch(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E8 (Corollary 5): greedy O(log n / delta)-spanners are almost the MST",
		Header: []string{"n", "delta", "t=log2(n)/delta", "edges", "n-1", "lightness", "1+delta"},
		Caption: "Corollary 5: the greedy O(log n/delta)-spanner has O(n) edges and lightness\n" +
			"at most 1+delta. Lightness column should be at most its target column.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{60}, []int{120, 250, 500})
	for _, n := range ns {
		for _, delta := range []float64{0.25, 0.5, 1} {
			g := gen.ErdosRenyi(rng, n, 0.3, 0.5, 10)
			t := math.Log2(float64(n)) / delta
			res, err := core.GreedyGraph(g, t)
			if err != nil {
				return nil, err
			}
			light, err := verify.Lightness(res.Graph(), g)
			if err != nil {
				return nil, err
			}
			tab.AddRow(itoa(n), f2(delta), f2(t), itoa(res.Size()), itoa(n-1), f3(light), f2(1+delta))
		}
	}
	return tab, nil
}

// E9UnboundedDegree exhibits the [HM06, Smi09] phenomenon motivating
// Section 5: greedy degree grows with n on the multi-scale ring metric
// while the approximate-greedy degree stays bounded.
func E9UnboundedDegree(scale Scale) (*Table, error) {
	tab := &Table{
		Title:  "E9 ([HM06, Smi09]): greedy degree is unbounded in doubling metrics",
		Header: []string{"scales", "per-ring", "n", "greedy max degree", "hub degree", "approx-greedy max degree"},
		Caption: "The hub's greedy degree grows ~ scales*perRing while the approximate-greedy\n" +
			"spanner (Theorem 6) keeps degree bounded.",
	}
	cfgs := [][2]int{{2, 6}, {3, 8}}
	if scale == Full {
		cfgs = [][2]int{{2, 8}, {4, 8}, {6, 8}, {8, 8}}
	}
	const eps = 0.1
	for _, cfg := range cfgs {
		m, err := gen.UnboundedDegreeMetric(cfg[0], cfg[1], eps)
		if err != nil {
			return nil, err
		}
		res, err := core.GreedyMetricFastParallelOpts(m, 1+eps, core.Options{})
		if err != nil {
			return nil, err
		}
		h := res.Graph()
		apx, err := approx.Greedy(m, approx.Options{Eps: eps})
		if err != nil {
			return nil, err
		}
		tab.AddRow(itoa(cfg[0]), itoa(cfg[1]), itoa(m.N()),
			itoa(h.MaxDegree()), itoa(h.Degree(0)), itoa(apx.Spanner.MaxDegree()))
	}
	return tab, nil
}

// E10Lemma11 audits the Lemma 11 analogue on approximate-greedy outputs:
// kept heavy edges should have second-shortest paths heavier than
// tPrime * w(e).
func E10Lemma11(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E10 (Lemma 11): second-shortest-path property of kept heavy edges",
		Header: []string{"n", "eps", "t'", "heavy kept", "violations"},
		Caption: "Lemma 11: for e in E\\E0, the 2nd shortest path between e's endpoints exceeds\n" +
			"t'*w(e). Our simulation is conservative, so violations should be 0.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{50}, []int{100, 200})
	for _, n := range ns {
		for _, eps := range []float64{0.3, 0.5} {
			m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
			res, err := approx.Greedy(m, approx.Options{Eps: eps})
			if err != nil {
				return nil, err
			}
			tPrime := 1.0 // conservative audit floor; see approx docs
			viol, checked := approx.AuditSecondShortestPath(res, tPrime)
			tab.AddRow(itoa(n), f2(eps), f2(tPrime), itoa(checked), itoa(viol))
		}
	}
	return tab, nil
}

// All runs every experiment at the given scale, returning the tables in
// order. Experiments that need randomness derive their seeds from `seed`.
func All(scale Scale, seed int64) ([]*Table, error) {
	type mk func() (*Table, error)
	makers := []mk{
		func() (*Table, error) { return E1Figure1() },
		func() (*Table, error) { return E2GeneralGraphs(scale, seed) },
		func() (*Table, error) { return E3SelfSpanner(scale, seed+1) },
		func() (*Table, error) { return E4DoublingLightness(scale, seed+2) },
		func() (*Table, error) { return E5ApproxGreedy(scale, seed+3) },
		func() (*Table, error) { return E6Comparison(scale, seed+4) },
		func() (*Table, error) { return E7MSTContainment(scale, seed+5) },
		func() (*Table, error) { return E8LogStretch(scale, seed+6) },
		func() (*Table, error) { return E9UnboundedDegree(scale) },
		func() (*Table, error) { return E10Lemma11(scale, seed+7) },
		func() (*Table, error) { return E11FaultTolerance(scale, seed+10) },
		func() (*Table, error) { return E12GraphFamilies(scale, seed+11) },
	}
	var out []*Table
	for _, mker := range makers {
		t, err := mker()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
