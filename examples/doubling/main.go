// Doubling metrics: exact greedy vs approximate-greedy (Sections 4 and 5
// of the paper). On a clustered point set (a doubling metric), both achieve
// constant lightness (Corollary 10 / Theorem 6), but the approximate-greedy
// algorithm avoids the exact greedy's quadratic distance examinations — and
// on the multi-scale ring gadget it also avoids the greedy's unbounded
// degree.
//
//	go run ./examples/doubling
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	spanner "repro"
	"repro/internal/gen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "doubling:", err)
		os.Exit(1)
	}
}

func run() error {
	const eps = 0.5
	rng := rand.New(rand.NewSource(3))
	pts := gen.ClusteredPoints(rng, 300, 2, 10, 0.015)
	m, err := spanner.NewEuclidean(pts)
	if err != nil {
		return err
	}
	fmt.Printf("metric: %d clustered points in the plane, target stretch %.1f\n\n", m.N(), 1+eps)

	start := time.Now()
	exact, err := spanner.GreedyMetric(m, 1+eps)
	if err != nil {
		return err
	}
	exactDur := time.Since(start)
	exactLight, err := spanner.MetricLightness(exact.Graph(), m)
	if err != nil {
		return err
	}
	fmt.Printf("exact greedy:   %6d edges  lightness %.2f  maxdeg %3d  (%v, examined %d pairs)\n",
		exact.Size(), exactLight, exact.MaxDegree(), exactDur.Round(time.Millisecond), exact.EdgesExamined)

	start = time.Now()
	apx, err := spanner.ApproxGreedy(m, spanner.ApproxOptions{Eps: eps})
	if err != nil {
		return err
	}
	apxDur := time.Since(start)
	apxLight, err := spanner.MetricLightness(apx.Spanner, m)
	if err != nil {
		return err
	}
	fmt.Printf("approx greedy:  %6d edges  lightness %.2f  maxdeg %3d  (%v, %d base edges, %d buckets)\n",
		apx.Spanner.M(), apxLight, apx.Spanner.MaxDegree(), apxDur.Round(time.Millisecond),
		apx.Stats.BaseEdges, apx.Stats.Buckets)

	// Both must actually be (1+eps)-spanners.
	if _, err := spanner.VerifyMetricSpanner(exact.Graph(), m, 1+eps); err != nil {
		return err
	}
	if _, err := spanner.VerifyMetricSpanner(apx.Spanner, m, 1+eps); err != nil {
		return err
	}
	fmt.Println("\nboth outputs verified as (1+eps)-spanners over all point pairs ✓")

	// The degree phenomenon that motivates Section 5: on the multi-scale
	// ring gadget the greedy hub degree grows with the instance while the
	// approximate-greedy degree stays flat.
	fmt.Println("\nunbounded-degree gadget ([HM06, Smi09] phenomenon):")
	for _, scales := range []int{2, 4, 6} {
		gm, err := gen.UnboundedDegreeMetric(scales, 8, 0.1)
		if err != nil {
			return err
		}
		ex, err := spanner.GreedyMetric(gm, 1.1)
		if err != nil {
			return err
		}
		ap, err := spanner.ApproxGreedy(gm, spanner.ApproxOptions{Eps: 0.1})
		if err != nil {
			return err
		}
		fmt.Printf("  n=%2d: greedy hub degree %2d, approx-greedy max degree %2d\n",
			gm.N(), ex.Graph().Degree(0), ap.Spanner.MaxDegree())
	}
	return nil
}
