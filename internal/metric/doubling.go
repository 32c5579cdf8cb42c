package metric

import "math"

// Net computes a greedy r-net of the metric restricted to the given points
// (all points if pts is nil): a maximal subset with pairwise distances > r,
// such that every point is within r of some net point. Points are considered
// in the given (or natural) order, so the result is deterministic. O(n * k)
// where k is the net size.
func Net(m Metric, pts []int, r float64) []int {
	if pts == nil {
		pts = make([]int, m.N())
		for i := range pts {
			pts[i] = i
		}
	}
	var net []int
	for _, p := range pts {
		covered := false
		for _, c := range net {
			if m.Dist(p, c) <= r {
				covered = true
				break
			}
		}
		if !covered {
			net = append(net, p)
		}
	}
	return net
}

// DoublingDimension estimates the doubling dimension of m empirically: for a
// geometric ladder of radii r, it measures how many (r/2)-net points fall in
// any r-ball, and returns log2 of the worst ratio observed. For a metric
// with true doubling dimension ddim the estimate is O(ddim) (standard
// packing bounds lose constant factors, cf. Lemma 1 of the paper); the
// estimator's value is in comparing families, e.g. verifying that a
// "stretched" metric M_H has dimension within a constant of M's
// (Observation 9). O(n^2 log(spread)).
func DoublingDimension(m Metric) float64 {
	n := m.N()
	if n <= 2 {
		return 0
	}
	minD := MinDistance(m)
	maxD := Diameter(m)
	if minD <= 0 || maxD <= 0 {
		return 0
	}
	worst := 1
	for r := maxD; r > minD/2; r /= 2 {
		// Count, for each ball B(c, r), the number of (r/2)-separated points
		// inside it; by the packing lemma this is at most 2^O(ddim).
		half := Net(m, nil, r/2)
		for c := 0; c < n; c++ {
			cnt := 0
			for _, p := range half {
				if m.Dist(c, p) <= r {
					cnt++
				}
			}
			if cnt > worst {
				worst = cnt
			}
		}
	}
	return math.Log2(float64(worst))
}
