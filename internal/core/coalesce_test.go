package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/metric"
)

// TestCoalescePolicyMetric interleaves fine-grained point insertions with
// queries under every policy shape and requires each queried Result to be
// bit-identical to a from-scratch build on the points inserted so far.
func TestCoalescePolicyMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := gen.UniformPoints(rng, 40, 2)
	policies := []IncrementalPolicy{
		{},                                      // replay every call (the default)
		{CoalesceUntilQuery: true},              // defer until Result
		{MinBatch: 4},                           // defer until 4 points pend
		{CoalesceUntilQuery: true, MinBatch: 6}, // both triggers
	}
	for _, p := range policies {
		inc, err := NewIncrementalMetric(metric.MustEuclidean(pts[:20]), 1.5,
			Options{Workers: 1, Hubs: 4})
		if err != nil {
			t.Fatal(err)
		}
		inc.SetPolicy(p)
		for k := 21; k <= len(pts); k++ {
			if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
				t.Fatal(err)
			}
			if !p.coalescing() && inc.Pending() != 0 {
				t.Fatalf("default policy left %d pending", inc.Pending())
			}
			if p.MinBatch > 0 && inc.Pending() >= p.MinBatch {
				t.Fatalf("MinBatch %d policy left %d pending", p.MinBatch, inc.Pending())
			}
			// Query every third insertion: Result must flush and match.
			if k%3 == 0 {
				want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts[:k]), 1.5)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, want, mustResult(t, inc))
				if inc.Pending() != 0 {
					t.Fatalf("Result left %d pending", inc.Pending())
				}
			}
		}
		want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts), 1.5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, mustResult(t, inc))
	}
}

// TestCoalescePolicyGraph is the graph-mode counterpart, one edge per
// InsertEdges call.
func TestCoalescePolicyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := gen.ErdosRenyi(rng, 35, 0.25, 0.5, 10)
	edges := g.EdgesCopy()
	held := edges[len(edges)-15:]
	base := g.Subgraph(edges[:len(edges)-15])
	for _, p := range []IncrementalPolicy{{CoalesceUntilQuery: true}, {MinBatch: 5}} {
		inc, err := NewIncrementalGraph(base, 3, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		inc.SetPolicy(p)
		grown := base.Clone()
		for i, e := range held {
			if err := inc.InsertEdges(e); err != nil {
				t.Fatal(err)
			}
			grown.MustAddEdge(e.U, e.V, e.W)
			if i%4 == 3 {
				want, err := GreedyGraph(grown, 3)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, want, mustResult(t, inc))
			}
		}
		want, err := GreedyGraph(grown, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, mustResult(t, inc))
	}
}

// TestSetPolicyFlushesPending pins the SetPolicy contract: switching back
// to an eager policy replays whatever a coalescing policy left pending.
func TestSetPolicyFlushesPending(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := gen.UniformPoints(rng, 24, 2)
	inc, err := NewIncrementalMetric(metric.MustEuclidean(pts[:20]), 1.5,
		Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true})
	for k := 21; k <= len(pts); k++ {
		if err := inc.Insert(metric.MustEuclidean(pts[:k])); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", inc.Pending())
	}
	inc.SetPolicy(IncrementalPolicy{})
	if inc.Pending() != 0 {
		t.Fatalf("SetPolicy left %d pending", inc.Pending())
	}
	want, err := GreedyMetricFastSerial(metric.MustEuclidean(pts), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, mustResult(t, inc))
}
