// Oracle: approximate distance queries over a greedy spanner — the
// distance-oracle motivation from the paper's introduction ([TZ01a, RTZ05]
// citations). A greedy (1+eps)-spanner stores O(n) edges instead of the
// full O(n^2) distance matrix, and answering a query with bidirectional
// Dijkstra on the sparse spanner returns a distance within factor 1+eps —
// this example measures the space saving and the observed query error.
//
//	go run ./examples/oracle
package main

import (
	"fmt"
	"math/rand"
	"os"

	spanner "repro"
	"repro/internal/gen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n   = 400
		eps = 0.25
	)
	rng := rand.New(rand.NewSource(17))
	pts := gen.UniformPoints(rng, n, 2)
	m, err := spanner.NewEuclidean(pts)
	if err != nil {
		return err
	}

	res, err := spanner.GreedyMetric(m, 1+eps)
	if err != nil {
		return err
	}
	h := res.Graph()
	full := n * (n - 1) / 2
	fmt.Printf("oracle storage: %d spanner edges instead of %d distances (%.1f%%)\n",
		res.Size(), full, 100*float64(res.Size())/float64(full))

	// Answer random queries with bidirectional Dijkstra on the spanner and
	// compare against the true metric distance.
	const queries = 2000
	worst, sum := 1.0, 0.0
	for q := 0; q < queries; q++ {
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		est := h.BidirectionalDistance(u, v)
		exact := m.Dist(u, v)
		ratio := est / exact
		if ratio < 1-1e-9 {
			return fmt.Errorf("oracle underestimated: %v < %v", est, exact)
		}
		if ratio > worst {
			worst = ratio
		}
		sum += ratio
	}
	fmt.Printf("queries: %d  mean stretch %.4f  worst stretch %.4f  (guarantee %.2f)\n",
		queries, sum/queries, worst, 1+eps)
	if worst > 1+eps+1e-9 {
		return fmt.Errorf("stretch guarantee violated: %v > %v", worst, 1+eps)
	}
	fmt.Println("all query answers within the (1+eps) guarantee ✓")
	return nil
}
