package graph

import (
	"math"
	"testing"
)

// decodeQuarterGraph decodes a fuzz input into a graph of at most 24
// vertices whose weights are k/4 for k = 1..64, a fuzz-chosen extra query
// limit (also a multiple of 1/4), and the stop poll at which a truncated
// search is cut. Every path sum of such a graph is a small multiple of
// 1/4, so float64 adds it exactly in any order and every tie is exact.
// The layout is n, limit, cut, then one (u, v, k) triple per edge; self
// loops are dropped and parallel edges kept.
func decodeQuarterGraph(data []byte) (g *Graph, limit float64, cut int) {
	n := 1 + int(data[0])%24
	g = New(n)
	for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
		u, v := int(rest[0])%n, int(rest[1])%n
		if u != v {
			g.MustAddEdge(u, v, float64(1+int(rest[2])%64)/4)
		}
	}
	return g, float64(data[1]) / 4, 1 + int(data[2])%(2*n+2)
}

// FuzzBidirWithin checks the bidirectional queries against the one-sided
// search on every ordered pair of a decoded quarter-weight graph, at the
// exact distance, a quarter below and above it, 0, Inf and a fuzz-chosen
// limit: BidirWithin must give DistanceWithin's decision, and
// BidirDistanceWithin its distance bit for bit. The walk the decision
// search returns at may be longer than the distance, but never shorter.
// A stop predicate that fires from the cut-th poll on (polled at every
// pop) may turn a true decision false, never a false one true. The seed
// corpus in testdata/fuzz/FuzzBidirWithin covers ties, parallel edges,
// disconnected pairs, a single vertex, and the decision's early return:
// at a walk longer than the shortest path, at a walk that ties the limit
// exactly, and after a relaxation whose sum exceeds the limit while a
// shorter path exists. It replays in ordinary go test runs.
func FuzzBidirWithin(f *testing.F) {
	f.Add([]byte{4, 8, 3, 0, 1, 4, 1, 2, 4, 0, 3, 4, 3, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3+3*160 {
			t.Skip()
		}
		g, extra, cut := decodeQuarterGraph(data)
		n := g.N()
		oneSided, bidir, stopped := NewSearcher(n), NewSearcher(n), NewSearcher(n)
		polls := 0
		stopped.bidir.init(n)
		stopped.bidir.pollMask = 0
		stopped.SetStop(func() bool { polls++; return polls >= cut })
		row := make([]float64, n)
		for src := 0; src < n; src++ {
			oneSided.Distances(g, src, row)
			for dst := 0; dst < n; dst++ {
				d := row[dst]
				for _, limit := range []float64{d, d - 0.25, d + 0.25, 0, Inf, extra} {
					wantD, wantOK := oneSided.DistanceWithin(g, src, dst, limit)
					if got := bidir.BidirWithin(g, src, dst, limit); got != wantOK {
						t.Fatalf("n=%d (%d,%d) limit=%v: BidirWithin %v, DistanceWithin (%v,%v)", n, src, dst, limit, got, wantD, wantOK)
					}
					if walk := bidir.bidirSearch(g, src, dst, limit, true); walk <= limit && walk < d {
						t.Fatalf("n=%d (%d,%d) limit=%v: decision returned a walk of %v, below the distance %v", n, src, dst, limit, walk, d)
					}
					gotD, gotOK := bidir.BidirDistanceWithin(g, src, dst, limit)
					if gotOK != wantOK || math.Float64bits(gotD) != math.Float64bits(wantD) {
						t.Fatalf("n=%d (%d,%d) limit=%v: BidirDistanceWithin (%v,%v), DistanceWithin (%v,%v)", n, src, dst, limit, gotD, gotOK, wantD, wantOK)
					}
					polls = 0
					if stoppedOK := stopped.BidirWithin(g, src, dst, limit); stoppedOK && !wantOK {
						t.Fatalf("n=%d (%d,%d) limit=%v: search stopped at poll %d answered true, DistanceWithin false", n, src, dst, limit, cut)
					}
				}
			}
		}
	})
}
