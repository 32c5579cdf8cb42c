// Package verify provides independent checkers for spanner outputs: exact
// stretch verification over all edges or pairs, lightness, and the equal
// MST weights of a graph and its induced metric. These are written against
// the definitions in Section 2 of the paper and deliberately avoid sharing
// code paths with the constructions they audit.
package verify

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// StretchReport summarizes a stretch audit.
type StretchReport struct {
	// MaxStretch is the largest observed ratio delta_H(u,v) / d(u,v).
	MaxStretch float64
	// WorstU, WorstV attain MaxStretch.
	WorstU, WorstV int
	// Pairs is the number of pairs checked.
	Pairs int
}

// Spanner checks that h is a t-spanner of g by verifying, for every edge
// (u, v) of g, that delta_H(u, v) <= t * w(u, v) (+eps for float slack).
// Per Section 2 this edge-restricted test implies the property for all
// vertex pairs. It returns the audit report and an error describing the
// first violation, if any.
func Spanner(h, g *graph.Graph, t, eps float64) (StretchReport, error) {
	if h.N() != g.N() {
		return StretchReport{}, fmt.Errorf("verify: vertex sets differ (%d vs %d)", h.N(), g.N())
	}
	rep := StretchReport{MaxStretch: 0}
	// Group g's edges by endpoint u to reuse one Dijkstra per source.
	bySource := make(map[int][]graph.Edge)
	for _, e := range g.Edges() {
		bySource[e.U] = append(bySource[e.U], e)
	}
	for u, es := range bySource {
		sp := h.Dijkstra(u)
		for _, e := range es {
			rep.Pairs++
			d := sp.Dist[e.V]
			if d > t*e.W+eps {
				return rep, fmt.Errorf("verify: stretch violated at (%d, %d): delta_H = %v > %v = t*w", e.U, e.V, d, t*e.W)
			}
			if s := d / e.W; s > rep.MaxStretch {
				rep.MaxStretch, rep.WorstU, rep.WorstV = s, e.U, e.V
			}
		}
	}
	return rep, nil
}

// MetricSpanner checks that the edge set given by h is a t-spanner of the
// metric m: for every pair of points (u, v), delta_H(u, v) <= t * d(u, v).
// Exhaustive over all pairs; O(n * Dijkstra + n^2).
func MetricSpanner(h *graph.Graph, m metric.Metric, t, eps float64) (StretchReport, error) {
	n := m.N()
	if h.N() != n {
		return StretchReport{}, fmt.Errorf("verify: vertex sets differ (%d vs %d)", h.N(), n)
	}
	rep := StretchReport{}
	for u := 0; u < n; u++ {
		sp := h.Dijkstra(u)
		for v := u + 1; v < n; v++ {
			rep.Pairs++
			d, want := sp.Dist[v], m.Dist(u, v)
			if d > t*want+eps {
				return rep, fmt.Errorf("verify: stretch violated at (%d, %d): delta_H = %v > %v", u, v, d, t*want)
			}
			if want > 0 {
				if s := d / want; s > rep.MaxStretch {
					rep.MaxStretch, rep.WorstU, rep.WorstV = s, u, v
				}
			}
		}
	}
	return rep, nil
}

// Lightness returns weight(h) / weight(MST(g)), the paper's Psi(H).
func Lightness(h, g *graph.Graph) (float64, error) {
	l, ok := graph.Lightness(h, g)
	if !ok {
		return 0, fmt.Errorf("verify: MST weight of base graph is zero")
	}
	return l, nil
}

// MetricLightness returns weight(h) / weight(MST(M)) where the MST is taken
// over the complete distance graph of the metric.
func MetricLightness(h *graph.Graph, m metric.Metric) (float64, error) {
	mst := metric.CompleteGraph(m).MSTWeight()
	if mst <= 0 {
		return 0, fmt.Errorf("verify: metric MST weight is zero")
	}
	return h.Weight() / mst, nil
}

// SameMSTWeight verifies Observation 6: the metric M_G induced by g and g
// itself have MSTs of the same weight (up to eps).
func SameMSTWeight(g *graph.Graph, eps float64) error {
	m, err := metric.FromGraph(g)
	if err != nil {
		return err
	}
	wg := g.MSTWeight()
	wm := metric.CompleteGraph(m).MSTWeight()
	if math.Abs(wg-wm) > eps {
		return fmt.Errorf("verify: MST weights differ: graph %v vs induced metric %v", wg, wm)
	}
	return nil
}
