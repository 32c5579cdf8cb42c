package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
)

// pickMetric restricts a metric to an arbitrary ordered subset of its
// points, delegating distances so they stay bitwise identical.
type pickMetric struct {
	m   metric.Metric
	idx []int
}

func (p pickMetric) N() int                { return len(p.idx) }
func (p pickMetric) Dist(i, j int) float64 { return p.m.Dist(p.idx[i], p.idx[j]) }

// restrictMetric returns the metric over m's points idx (in that order),
// preserving the concrete type for Euclidean metrics so the from-scratch
// reference and the replay both exercise the grid-bucketed supply.
func restrictMetric(m metric.Metric, idx []int) metric.Metric {
	if eu, ok := m.(*metric.Euclidean); ok {
		pts := make([][]float64, len(idx))
		for i, j := range idx {
			pts[i] = eu.Point(j)
		}
		return metric.MustEuclidean(pts)
	}
	return pickMetric{m: m, idx: append([]int(nil), idx...)}
}

// deleteAt removes the given dense positions from alive, mirroring the
// spanner's survivor renumbering.
func deleteAt(alive []int, dense []int) []int {
	drop := make(map[int]bool, len(dense))
	for _, d := range dense {
		drop[d] = true
	}
	out := alive[:0]
	for i, v := range alive {
		if !drop[i] {
			out = append(out, v)
		}
	}
	return out
}

// TestDeleteMatchesFromScratch is the tentpole equivalence property for
// deletions: shrinking a maintained spanner by point deletions must
// reproduce, bit for bit, a from-scratch greedy build on the survivors —
// across metric families, worker counts, hub counts, and batch shapes.
func TestDeleteMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for kind, m := range hubTestMetrics(t, rng, 36) {
		for oi, opts := range []Options{
			{Workers: 1},
			{Workers: 4, Hubs: 4},
			{Workers: 3, BatchSize: 9, BucketPairs: 41, Hubs: 4, GuardRows: true},
		} {
			probe := &replayProbe{}
			inc, err := NewIncrementalMetric(m, 1.7, probe.options(opts))
			if err != nil {
				t.Fatal(err)
			}
			probe.inc = audited(inc)
			alive := make([]int, m.N())
			for i := range alive {
				alive[i] = i
			}
			delRng := rand.New(rand.NewSource(int64(31*oi + len(kind))))
			for step := 0; len(alive) > 2; step++ {
				k := 1 + delRng.Intn(3)
				if k > len(alive)-2 {
					k = len(alive) - 2
				}
				dense := delRng.Perm(len(alive))[:k]
				if err := inc.Delete(dense...); err != nil {
					t.Fatalf("%s/opts=%d step %d: Delete: %v", kind, oi, step, err)
				}
				probe.check(t, fmt.Sprintf("%s/opts=%d/step=%d", kind, oi, step))
				alive = deleteAt(alive, dense)
				if step%3 != 0 && len(alive) > 12 {
					continue // only cross-check every few batches at larger sizes
				}
				want, err := GreedyMetricFastSerial(restrictMetric(m, alive), 1.7)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, fmt.Sprintf("%s/opts=%d/n=%d", kind, oi, len(alive)), want, mustResult(t, inc))
			}
		}
	}
}

// TestDynamicMixedMatchesFromScratch interleaves insertions, deletions,
// and queries under each batching policy; at every quiesce point the
// maintained result must equal a from-scratch build on the survivors.
func TestDynamicMixedMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for kind, m := range hubTestMetrics(t, rng, 40) {
		for _, tc := range []struct {
			name   string
			policy IncrementalPolicy
		}{
			{"eager", IncrementalPolicy{}},
			{"coalesce", IncrementalPolicy{CoalesceUntilQuery: true}},
			{"minbatch", IncrementalPolicy{CoalesceUntilQuery: true, MinBatch: 5}},
		} {
			alive := make([]int, 20)
			for i := range alive {
				alive[i] = i
			}
			pool := 20
			probe := &replayProbe{}
			inc, err := NewIncrementalMetric(restrictMetric(m, alive), 1.6, probe.options(Options{Workers: 3, Hubs: 4}))
			if err != nil {
				t.Fatal(err)
			}
			probe.inc = audited(inc)
			if err := inc.SetPolicy(tc.policy); err != nil {
				t.Fatal(err)
			}
			opRng := rand.New(rand.NewSource(int64(len(kind) + len(tc.name))))
			check := func(step int) {
				want, err := GreedyMetricFastSerial(restrictMetric(m, alive), 1.6)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, fmt.Sprintf("%s/%s/step=%d", kind, tc.name, step), want, mustResult(t, inc))
			}
			for step := 0; step < 14; step++ {
				switch op := opRng.Intn(3); {
				case op == 0 && pool < m.N(): // insert 1-3 points
					k := 1 + opRng.Intn(3)
					if pool+k > m.N() {
						k = m.N() - pool
					}
					for j := 0; j < k; j++ {
						alive = append(alive, pool+j)
					}
					pool += k
					if err := inc.Insert(restrictMetric(m, alive)); err != nil {
						t.Fatalf("%s/%s step %d: Insert: %v", kind, tc.name, step, err)
					}
				case op == 1 && len(alive) > 6: // delete 1-2 points
					dense := opRng.Perm(len(alive))[:1+opRng.Intn(2)]
					if err := inc.Delete(dense...); err != nil {
						t.Fatalf("%s/%s step %d: Delete: %v", kind, tc.name, step, err)
					}
					alive = deleteAt(alive, dense)
				default: // query (flushes any coalesced batch)
					check(step)
				}
				probe.check(t, fmt.Sprintf("%s/%s/step=%d", kind, tc.name, step))
			}
			check(99)
			probe.check(t, fmt.Sprintf("%s/%s/final", kind, tc.name))
		}
	}
}

// TestDeleteEdgesMatchesFromScratch is the graph-mode deletion
// equivalence: removing edge batches must reproduce a from-scratch build
// on the surviving graph across the test families.
func TestDeleteEdgesMatchesFromScratch(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, workers := range []int{1, 3} {
			inc, err := NewIncrementalGraph(g, 1.6, Options{Workers: workers, Hubs: 4})
			if err != nil {
				t.Fatal(err)
			}
			edges := g.EdgesCopy()
			delRng := rand.New(rand.NewSource(int64(len(name) + workers)))
			// Bounded sweep: large families would take hundreds of small
			// batches to drain, so delete up to 24 batches (the small
			// families still drain to the floor).
			for step := 0; len(edges) > 4 && step < 24; step++ {
				k := 1 + delRng.Intn(3)
				if k > len(edges)-4 {
					k = len(edges) - 4
				}
				batch := make([]graph.Edge, 0, k)
				for _, at := range delRng.Perm(len(edges))[:k] {
					batch = append(batch, edges[at])
				}
				if err := inc.DeleteEdges(batch...); err != nil {
					t.Fatalf("%s/w=%d step %d: DeleteEdges: %v", name, workers, step, err)
				}
				drop := make(map[graph.Edge]bool, k)
				for _, e := range batch {
					drop[e] = true
				}
				kept := edges[:0]
				for _, e := range edges {
					if !drop[e] {
						kept = append(kept, e)
					}
				}
				edges = kept
				if step%6 != 2 && len(edges) > 20 {
					continue
				}
				cur := graph.New(g.N())
				for _, e := range edges {
					cur.MustAddEdge(e.U, e.V, e.W)
				}
				want, err := GreedyGraphParallelOpts(cur, 1.6, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, fmt.Sprintf("%s/w=%d/m=%d", name, workers, len(edges)), want, mustResult(t, inc))
			}
		}
	}
}

// TestDeleteRejectedEdgeIsFree pins the cut story: deleting an edge the
// greedy scan rejected (or a point no accepted edge touches) preserves
// the entire decided scan, so the maintained edge set is unchanged.
func TestDeleteRejectedEdgeIsFree(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 2, 2.1) // rejected at t=2: d(0,2)=2 <= 2*2.1
	inc, err := NewIncrementalGraph(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := mustResult(t, inc)
	if len(before.Edges) != 3 {
		t.Fatalf("setup: spanner has %d edges, want 3", len(before.Edges))
	}
	if err := inc.DeleteEdges(graph.Edge{U: 0, V: 2, W: 2.1}); err != nil {
		t.Fatal(err)
	}
	after := mustResult(t, inc)
	if after.EdgesExamined != 3 {
		t.Fatalf("examined %d candidates after deleting a rejected edge, want 3", after.EdgesExamined)
	}
	for i := range before.Edges {
		if before.Edges[i] != after.Edges[i] {
			t.Fatalf("edge %d changed: %v -> %v", i, before.Edges[i], after.Edges[i])
		}
	}
}

// TestDeleteEverythingAndRegrow drains the spanner to zero points and
// grows it back; both directions must match from-scratch builds.
func TestDeleteEverythingAndRegrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	m := metric.MustEuclidean(pts)
	inc, err := NewIncrementalMetric(m, 1.5, Options{Workers: 2, Hubs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 4, 2} { // 10 -> 6 -> 2 -> 0
		dense := make([]int, k)
		for i := range dense {
			dense[i] = i
		}
		if err := inc.Delete(dense...); err != nil {
			t.Fatal(err)
		}
	}
	res := mustResult(t, inc)
	if res.N != 0 || len(res.Edges) != 0 || res.EdgesExamined != 0 {
		t.Fatalf("drained spanner: N=%d edges=%d examined=%d, want all zero", res.N, len(res.Edges), res.EdgesExamined)
	}
	if err := inc.Insert(m); err != nil {
		t.Fatal(err)
	}
	want, err := GreedyMetricFastSerial(m, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "regrow", want, mustResult(t, inc))
}

// TestDeleteThenReinsertSamePoint deletes a point and re-inserts the same
// coordinates; the re-insertion is a fresh element (new internal id) and
// the result must match a from-scratch build on the final point set.
func TestDeleteThenReinsertSamePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 14)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 8, rng.Float64() * 8}
	}
	m := metric.MustEuclidean(pts)
	inc, err := NewIncrementalMetric(m, 1.6, Options{Workers: 2, Hubs: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := 6
	if err := inc.Delete(victim); err != nil {
		t.Fatal(err)
	}
	order := make([]int, 0, len(pts))
	for i := range pts {
		if i != victim {
			order = append(order, i)
		}
	}
	order = append(order, victim) // same coordinates, now the last point
	if err := inc.Insert(restrictMetric(m, order)); err != nil {
		t.Fatal(err)
	}
	want, err := GreedyMetricFastSerial(restrictMetric(m, order), 1.6)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "reinsert", want, mustResult(t, inc))
}

// TestDeleteHubVertex deletes hub vertices — including enough of the
// point set that dead hubs become unreplaceable — and requires exact
// equivalence throughout: hub replacement and the degraded no-candidate
// case must never change certification outcomes.
func TestDeleteHubVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 24)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 12, rng.Float64() * 12}
	}
	m := metric.MustEuclidean(pts)
	inc, err := NewIncrementalMetric(m, 1.5, Options{Workers: 3, Hubs: 4})
	if err != nil {
		t.Fatal(err)
	}
	hubs := SelectMetricHubs(m, 4) // stable == dense before the first delete
	alive := make([]int, len(pts))
	for i := range alive {
		alive[i] = i
	}
	// Delete one hub, then batches shrinking the set to 3 < Hubs points.
	steps := [][]int{{hubs[0]}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {0, 1, 2}}
	for si, dense := range steps {
		if err := inc.Delete(dense...); err != nil {
			t.Fatalf("step %d: Delete: %v", si, err)
		}
		alive = deleteAt(alive, dense)
		want, err := GreedyMetricFastSerial(restrictMetric(m, alive), 1.5)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("hubdel/step=%d/n=%d", si, len(alive)), want, mustResult(t, inc))
	}
}

// TestDeleteInfiniteWeights exercises deletion around +Inf-weight
// candidate pairs (disconnected-alike points).
func TestDeleteInfiniteWeights(t *testing.T) {
	full := infMetric{n: 12} // pair (0, 11) has weight +Inf
	inc, err := NewIncrementalMetric(full, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(5); err != nil { // keeps the +Inf pair alive
		t.Fatal(err)
	}
	alive := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	want, err := GreedyMetricFastSerial(pickMetric{m: full, idx: alive}, 2)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "inf/keep", want, mustResult(t, inc))
	if got := mustResult(t, inc).EdgesExamined; got != 11*10/2 {
		t.Fatalf("examined %d pairs, want %d (the +Inf pair included)", got, 11*10/2)
	}
	if err := inc.Delete(10); err != nil { // dense 10 = original 11: drops the +Inf pair
		t.Fatal(err)
	}
	alive = alive[:10]
	want, err = GreedyMetricFastSerial(pickMetric{m: full, idx: alive}, 2)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "inf/drop", want, mustResult(t, inc))
}

// TestDeleteValidation pins the eager-validation contract: a rejected
// Delete/DeleteEdges changes no state.
func TestDeleteValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 8)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	m := metric.MustEuclidean(pts)
	inc, err := NewIncrementalMetric(m, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := mustResult(t, inc)
	for name, call := range map[string]func() error{
		"out-of-range": func() error { return inc.Delete(8) },
		"negative":     func() error { return inc.Delete(-1) },
		"duplicate":    func() error { return inc.Delete(2, 3, 2) },
		"wrong-mode":   func() error { return inc.DeleteEdges(graph.Edge{U: 0, V: 1, W: 1}) },
	} {
		err := call()
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if name != "wrong-mode" && !errors.Is(err, graph.ErrInvalidInput) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidInput", name, err)
		}
	}
	if inc.Pending() != 0 {
		t.Fatalf("rejected deletes left %d pending ops", inc.Pending())
	}
	equalResults(t, "unchanged", before, mustResult(t, inc))

	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	ginc, err := NewIncrementalGraph(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gbefore := mustResult(t, ginc)
	for name, batch := range map[string][]graph.Edge{
		"absent":      {{U: 0, V: 3, W: 1}},
		"wrong-w":     {{U: 0, V: 1, W: 2}},
		"over-copies": {{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}},
	} {
		if err := ginc.DeleteEdges(batch...); !errors.Is(err, graph.ErrInvalidInput) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidInput", name, err)
		}
	}
	if err := ginc.Delete(0); err == nil {
		t.Fatal("Delete on graph mode: no error")
	}
	equalResults(t, "graph-unchanged", gbefore, mustResult(t, ginc))
	if ginc.Pending() != 0 {
		t.Fatalf("rejected deletes left %d pending ops", ginc.Pending())
	}
}

// TestDeleteDuringCoalesceWithPendingInserts deletes points (including a
// just-inserted, not-yet-replayed one) while inserts are coalesced; the
// single deferred replay must match from-scratch on the net survivors.
func TestDeleteDuringCoalesceWithPendingInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 6, rng.Float64() * 6}
	}
	m := metric.MustEuclidean(pts)
	alive := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	inc, err := NewIncrementalMetric(restrictMetric(m, alive), 1.6, Options{Workers: 2, Hubs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	alive = append(alive, 12, 13, 14)
	if err := inc.Insert(restrictMetric(m, alive)); err != nil {
		t.Fatal(err)
	}
	// Dense 13 is pending-inserted point 13; dense 2 is an original point.
	if err := inc.Delete(13, 2); err != nil {
		t.Fatal(err)
	}
	alive = deleteAt(alive, []int{13, 2})
	if got := inc.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5 (3 inserted + 2 deleted)", got)
	}
	want, err := GreedyMetricFastSerial(restrictMetric(m, alive), 1.6)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "coalesced", want, mustResult(t, inc))
	if inc.Pending() != 0 {
		t.Fatalf("Pending() = %d after flush", inc.Pending())
	}
}

// TestDeleteResultIsDenseRenumbering pins the caller-facing numbering:
// after deletions, vertex i of the Result is the i-th survivor in
// maintained order, and edge endpoints are within [0, N).
func TestDeleteResultIsDenseRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([][]float64, 16)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
	}
	m := metric.MustEuclidean(pts)
	inc, err := NewIncrementalMetric(m, 1.4, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(0, 7, 15); err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, inc)
	if res.N != 13 {
		t.Fatalf("N = %d, want 13", res.N)
	}
	for _, e := range res.Edges {
		if e.U < 0 || e.U >= 13 || e.V < 0 || e.V >= 13 {
			t.Fatalf("edge %v endpoints outside dense range [0, 13)", e)
		}
	}
	// The maintained distances must be the survivors': spot-check that
	// the result's weights exist among survivor pair distances.
	if math.IsNaN(res.Weight) || res.Weight <= 0 {
		t.Fatalf("weight %v not positive", res.Weight)
	}
}
