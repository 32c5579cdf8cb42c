package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/verify"
)

// E11FaultTolerance measures the cost of vertex-fault tolerance in the
// greedy framework (the paper's [Sol14] direction): edges and lightness of
// the f-fault-tolerant greedy spanner for f = 0, 1, 2. Theory predicts an
// O(f) (doubling metrics: O(f^2) edges / O(f^2 log n)-ish weight) blow-up;
// the shape to check is a mild polynomial growth in f, with every output
// surviving all fault sets.
func E11FaultTolerance(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E11 (extension, [Sol14] direction): fault-tolerant greedy spanners",
		Header: []string{"n", "t", "f", "edges", "lightness", "min degree", "FT verified"},
		Caption: "f-fault-tolerant greedy: every vertex needs degree > f, and edge count grows\n" +
			"polynomially in f. 'FT verified' exhaustively checks all fault sets of size <= f.",
	}
	rng := rand.New(rand.NewSource(seed))
	ns := scale.pick([]int{12}, []int{16, 24})
	for _, n := range ns {
		m := metric.MustEuclidean(gen.UniformPoints(rng, n, 2))
		for _, t := range []float64{1.8} {
			for f := 0; f <= 2; f++ {
				res, err := core.FaultTolerantGreedyOpts(m, t, f, core.Options{})
				if err != nil {
					return nil, err
				}
				h := res.Graph()
				light, err := verify.MetricLightness(h, m)
				if err != nil {
					return nil, err
				}
				minDeg := n
				for v := 0; v < n; v++ {
					if d := h.Degree(v); d < minDeg {
						minDeg = d
					}
				}
				status := "yes"
				if err := core.VerifyFaultTolerance(h, m, t, f, 1e-9); err != nil {
					status = "NO: " + err.Error()
				}
				tab.AddRow(itoa(n), f2(t), itoa(f), itoa(res.Size()), f2(light), itoa(minDeg), status)
			}
		}
	}
	return tab, nil
}

// E12GraphFamilies runs the greedy spanner across structured graph families
// (hypercube, circulant, random regular, grid) — all closed under edge
// removal, so Theorem 4 applies to each. The table reports size/lightness
// and re-checks Lemma 3 everywhere.
func E12GraphFamilies(scale Scale, seed int64) (*Table, error) {
	tab := &Table{
		Title:  "E12 (Theorem 4 breadth): greedy across edge-removal-closed families",
		Header: []string{"family", "n", "m", "t", "spanner edges", "lightness", "Lemma 3 ok"},
	}
	rng := rand.New(rand.NewSource(seed))
	dim := 6
	reg := 40
	if scale == Small {
		dim = 4
		reg = 20
	}
	type instance struct {
		name string
		g    *graphOrErr
	}
	circ, errCirc := gen.Circulant(8*dim, []int{1, 3, 5})
	rr, errRR := gen.RandomRegular(rng, reg, 4)
	instances := []instance{
		{"hypercube", &graphOrErr{gen.Hypercube(dim), nil}},
		{"circulant", &graphOrErr{circ, errCirc}},
		{"random-regular", &graphOrErr{rr, errRR}},
		{"grid", &graphOrErr{gen.Grid(dim*2, dim*2), nil}},
	}
	for _, inst := range instances {
		if inst.g.err != nil {
			return nil, fmt.Errorf("bench: %s: %w", inst.name, inst.g.err)
		}
		// Perturb weights so the greedy output is unique and Lemma 3 holds
		// with strict inequalities.
		g := gen.WeightedPerturbation(rng, inst.g.g, 0.05)
		for _, t := range []float64{2, 3} {
			res, err := core.GreedyGraph(g, t)
			if err != nil {
				return nil, err
			}
			light, err := verify.Lightness(res.Graph(), g)
			if err != nil {
				return nil, err
			}
			ok := "yes"
			if v := core.VerifySelfSpanner(res.Graph(), t); len(v) != 0 {
				ok = fmt.Sprintf("NO (%d)", len(v))
			}
			tab.AddRow(inst.name, itoa(g.N()), itoa(g.M()), f2(t), itoa(res.Size()), f2(light), ok)
		}
	}
	return tab, nil
}

type graphOrErr struct {
	g   *graph.Graph
	err error
}
