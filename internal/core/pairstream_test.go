package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// drainSource pulls src dry with a rotating pull width, exercising batch
// boundaries that do not align with bucket boundaries.
func drainSource(src CandidateSource, widths []int) []graph.Edge {
	var out []graph.Edge
	for i := 0; ; i++ {
		batch := src.NextBatch(widths[i%len(widths)])
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch...)
	}
}

func equalEdgeSeq(t *testing.T, label string, want, got []graph.Edge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch: want %d candidates, got %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: candidate %d differs: want %+v, got %+v", label, i, want[i], got[i])
		}
	}
}

// TestStreamedPairOrderMatchesMaterialized is the supply-level equivalence
// property: the streamed weight-bucketed supply must emit exactly the
// sequence sortedPairs materializes — same pairs, same weights, same
// order, ties included — across Euclidean (grid-bucketed), matrix, and
// graph-induced metrics, for several bucket caps and pull widths.
func TestStreamedPairOrderMatchesMaterialized(t *testing.T) {
	pullWidths := [][]int{{1}, {7, 64, 3}, {100000}}
	for name, m := range testMetrics(t) {
		want := sortedPairs(m)
		for _, bucketPairs := range []int{0, 17, 256, 1 << 20} {
			for wi, widths := range pullWidths {
				src := NewMetricSource(m, bucketPairs)
				got := drainSource(src, widths)
				label := fmt.Sprintf("%s/bucket=%d/pull=%d", name, bucketPairs, wi)
				equalEdgeSeq(t, label, want, got)
			}
		}
	}
}

// TestStreamedPairOrderBucketCap asserts the streamed supply honors its
// bucket cap: no materialized bucket may exceed the configured pair count
// (distinct-weight instances; only single-weight spikes may overflow).
func TestStreamedPairOrderBucketCap(t *testing.T) {
	for name, m := range testMetrics(t) {
		if name == "matrix-ring-gadget" {
			// The ring gadget has large groups of equal weights, which a
			// weight partition cannot split below the cap by design.
			continue
		}
		const cap = 97
		src := NewMetricSource(m, cap).(*bucketedSource)
		got := drainSource(src, []int{64})
		n := m.N()
		if len(got) != n*(n-1)/2 {
			t.Fatalf("%s: emitted %d of %d pairs", name, len(got), n*(n-1)/2)
		}
		if src.PeakBucket() > cap {
			t.Fatalf("%s: peak bucket %d exceeds cap %d", name, src.PeakBucket(), cap)
		}
	}
}

// TestGraphEdgeSourceOrder checks the graph-side supplier: the streamed
// bucketed edge supply equals SortedEdges for every test family.
func TestGraphEdgeSourceOrder(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := g.SortedEdges()
		for _, bucketPairs := range []int{0, 13, 1024} {
			src := NewGraphEdgeSource(g, bucketPairs)
			got := drainSource(src, []int{5, 1000, 1})
			equalEdgeSeq(t, fmt.Sprintf("%s/bucket=%d", name, bucketPairs), want, got)
		}
	}
}

// TestGreedyMetricSupplyParallelEquivalence runs the metric engine's
// streamed supply at the default and several explicit bucket caps across
// worker counts and batch widths, and demands bit-identical output against
// the serial reference, which scans the materialized, globally sorted
// pair list.
func TestGreedyMetricSupplyParallelEquivalence(t *testing.T) {
	for name, m := range testMetrics(t) {
		for _, stretch := range []float64{1.2, 2} {
			want, err := GreedyMetricFastSerial(m, stretch)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8} {
				for _, opts := range []Options{
					{Workers: workers},
					{Workers: workers, BucketPairs: 41},
					{Workers: workers, BucketPairs: 41, BatchSize: 9},
					{Workers: workers, BucketPairs: 200},
				} {
					got, err := GreedyMetricFastParallelOpts(m, stretch, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/t=%v/w=%d/bucket=%d/batch=%d",
						name, stretch, workers, opts.BucketPairs, opts.BatchSize)
					equalResults(t, label, want, got)
				}
			}
		}
	}
}

// TestGreedyGraphSupplyParallelEquivalence is the graph-engine
// counterpart: the streamed supply at several bucket caps across worker
// counts, all bit-identical to the sequential GreedyGraph reference, which
// scans a sorted copy of the edge list.
func TestGreedyGraphSupplyParallelEquivalence(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, stretch := range []float64{1.5, 3} {
			want, err := GreedyGraph(g, stretch)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, opts := range []Options{
					{Workers: workers},
					{Workers: workers, BucketPairs: 29},
					{Workers: workers, BucketPairs: 64},
				} {
					got, err := GreedyGraphParallelOpts(g, stretch, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/t=%v/w=%d/bucket=%d",
						name, stretch, workers, opts.BucketPairs)
					equalResults(t, label, want, got)
				}
			}
		}
	}
}

// TestSparseBoundRowsParallelStats checks the memory-side counters: the
// sparse store reports how many rows were materialized (at most n, usually
// far fewer than n for generous stretches) and the streamed supply reports
// its peak bucket.
func TestSparseBoundRowsParallelStats(t *testing.T) {
	for name, m := range testMetrics(t) {
		for _, workers := range []int{1, 4} {
			var stats Stats
			res, err := GreedyMetricFastParallelOpts(m, 2, Options{Workers: workers, Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			if stats.RowsAllocated <= 0 || stats.RowsAllocated > m.N() {
				t.Fatalf("%s/w=%d: RowsAllocated = %d out of [1, %d]", name, workers, stats.RowsAllocated, m.N())
			}
			if stats.PeakBucketPairs <= 0 || stats.PeakBucketPairs > res.EdgesExamined {
				t.Fatalf("%s/w=%d: PeakBucketPairs = %d out of [1, %d]", name, workers, stats.PeakBucketPairs, res.EdgesExamined)
			}
			total := stats.CachedSkips + stats.CertifiedSkips + stats.SerialSkips + stats.Kept
			if total != res.EdgesExamined {
				t.Fatalf("%s/w=%d: stats don't cover scan: %d vs %d examined", name, workers, total, res.EdgesExamined)
			}
		}
	}
}

// infMetric is a custom metric with one +Inf distance (a "disconnected"
// sentinel some user metrics use); the streamed supply must examine it
// exactly like the materialized path does.
type infMetric struct{ n int }

func (m infMetric) N() int { return m.n }
func (m infMetric) Dist(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if i == 0 && j == m.n-1 {
		return math.Inf(1)
	}
	return float64(j - i)
}

// TestStreamedPairOrderInfiniteWeights pins the infinite-weight contract:
// +Inf pairs are emitted exactly once, last, and the engines examine the
// same pair count as the serial reference (which skips them via
// Inf <= t*Inf).
func TestStreamedPairOrderInfiniteWeights(t *testing.T) {
	m := infMetric{n: 12}
	want := sortedPairs(m)
	got := drainSource(NewMetricSource(m, 8), []int{3})
	equalEdgeSeq(t, "inf-weights", want, got)
	if last := got[len(got)-1]; !math.IsInf(last.W, 1) {
		t.Fatalf("infinite pair not last: %+v", last)
	}
	ref, err := GreedyMetricFastSerial(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := GreedyMetricFastParallelOpts(m, 2, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, fmt.Sprintf("inf-weights/w=%d", workers), ref, res)
	}
}

// TestStreamedPairOrderSeededCounts checks the seeded supply: a source
// given a caller-maintained weight histogram (the incremental engine's
// mode) must emit exactly the sequence the self-counting source emits,
// and honor a cut with identical Skipped accounting.
func TestStreamedPairOrderSeededCounts(t *testing.T) {
	for name, m := range testMetrics(t) {
		var counts geom.Histogram
		n := m.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				counts.Add(m.Dist(i, j))
			}
		}
		want := sortedPairs(m)
		got := drainSource(newMetricSourceSeeded(m, 64, counts), []int{9, 100})
		equalEdgeSeq(t, name+"/seeded", want, got)
		// Cut at the median candidate: emitted tail + skipped count must
		// partition the scan exactly.
		cut := want[len(want)/2]
		src := newMetricSourceAfter(m, 64, cut, counts)
		tail := drainSource(src, []int{13})
		equalEdgeSeq(t, name+"/seeded-cut", want[len(want)/2:], tail)
		if src.Skipped() != len(want)/2 {
			t.Fatalf("%s: Skipped() = %d, want %d", name, src.Skipped(), len(want)/2)
		}
	}
}

// newMetricSourceAfter is the seeded metric supply resumed at cut, the
// way IncrementalSpanner replays: candidates strictly before cut in scan
// order are counted into Skipped instead of emitted, and whole weight
// buckets below the cut are skipped by count alone.
func newMetricSourceAfter(m metric.Metric, bucketPairs int, cut graph.Edge, counts geom.Histogram) *bucketedSource {
	s := newMetricSourceSeeded(m, bucketPairs, counts)
	s.fill.cut = &cut
	return s
}

// hugeMetric pins the top-of-range bucketing: one pair lands in the
// overflow exponent bucket [2^1023, MaxFloat64] whose hi overflows to
// +Inf, and another pair is genuinely infinite. The two must never be
// conflated — the +Inf pair streams exactly once, last.
type hugeMetric struct{ n int }

func (m hugeMetric) N() int { return m.n }
func (m hugeMetric) Dist(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	switch {
	case i == 0 && j == m.n-1:
		return math.Inf(1)
	case i == 1 && j == m.n-1:
		return math.MaxFloat64
	case i == 2 && j == m.n-1:
		return math.Ldexp(1, 1023)
	}
	return float64(j - i)
}

// TestStreamedPairOrderOverflowBucket: weights at and above 2^1023 share
// a bucket whose upper bound overflows Ldexp to +Inf; the collection must
// still exclude the genuinely infinite pairs from it (they have their own
// final bucket), or candidates would be emitted twice.
func TestStreamedPairOrderOverflowBucket(t *testing.T) {
	m := hugeMetric{n: 8}
	want := sortedPairs(m)
	got := drainSource(NewMetricSource(m, 4), []int{3})
	equalEdgeSeq(t, "overflow-bucket", want, got)
	if last := got[len(got)-1]; !math.IsInf(last.W, 1) {
		t.Fatalf("infinite pair not last: %+v", last)
	}
	if n := len(got); n != m.n*(m.n-1)/2 {
		t.Fatalf("emitted %d pairs, want %d (no duplicates)", n, m.n*(m.n-1)/2)
	}
}

// TestMetricSourceDegenerateInputs covers empty, single-point, and
// duplicate-point (zero-distance) supplies.
func TestMetricSourceDegenerateInputs(t *testing.T) {
	if got := drainSource(NewMetricSource(metric.MustEuclidean(nil), 0), []int{8}); len(got) != 0 {
		t.Fatalf("empty metric emitted %d pairs", len(got))
	}
	one := metric.MustEuclidean([][]float64{{1, 2}})
	if got := drainSource(NewMetricSource(one, 0), []int{8}); len(got) != 0 {
		t.Fatalf("single point emitted %d pairs", len(got))
	}
	// Duplicate points produce zero-weight pairs, which must come first.
	dup := metric.MustEuclidean([][]float64{{0, 0}, {0, 0}, {3, 4}})
	got := drainSource(NewMetricSource(dup, 0), []int{8})
	want := sortedPairs(dup)
	equalEdgeSeq(t, "duplicate-points", want, got)
	if got[0].W != 0 {
		t.Fatalf("zero-weight pair not first: %+v", got[0])
	}
}

// TestMergedBucketsReducePasses pins the pass-merging optimization and
// its limit: a candidate set spread over many small geometric weight
// buckets must be collected in far fewer enumeration passes than buckets
// (adjacent small buckets merge into one collection range), with the
// emitted sequence unchanged; and no merge may grow past the merge limit
// (an eighth of the candidate set, at least minMergePairs), so a
// serve-sized replay's tail arrives in several buckets, not one.
func TestMergedBucketsReducePasses(t *testing.T) {
	// 40 points on an exponential line: pair distances span ~40 binary
	// exponents, one tiny bucket each.
	n := 40
	pts := make([][]float64, n)
	x := 0.0
	for i := range pts {
		pts[i] = []float64{x, 0}
		x += math.Ldexp(1, i/2-10)
	}
	m := metric.MustEuclidean(pts)
	want := sortedPairs(m)
	src := newBucketedSource(metricEnumeratorFor(m), 0)
	got := drainSource(src, []int{64})
	equalEdgeSeq(t, "exponential-line", want, got)
	// One counting pass plus one merged collection pass for the whole set
	// (everything fits one cap-sized range); without merging this would be
	// one pass per occupied exponent (~tens).
	if src.Passes() > 4 {
		t.Fatalf("merged supply used %d passes, want <= 4", src.Passes())
	}

	// The seeded supply of a single-point insert into n=500 servePoints,
	// resumed at the insert's cut, as the replay drains it. A bucket above
	// the limit may only be one binary exponent wide: merging stops at the
	// limit, and only the cap splits a single geometric bucket.
	serve := servePoints(1, 500)
	inc, err := NewIncrementalMetric(metric.MustEuclidean(serve), 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetPolicy(IncrementalPolicy{CoalesceUntilQuery: true}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Insert(metric.MustEuclidean(append(serve, []float64{50.5, 49.5}))); err != nil {
		t.Fatal(err)
	}
	f := inc.source(inc.pendingCut).fill
	buckets, limit := 0, 0
	for b := f.next(nil); b.recs != nil; b = f.next(nil) {
		if buckets == 0 {
			limit = min(f.cap, max(inc.counts.Total()/mergeShare, minMergePairs))
		}
		buckets++
		_, e0 := math.Frexp(b.recs[0].w)
		_, e1 := math.Frexp(b.recs[len(b.recs)-1].w)
		t.Logf("replay bucket %d: %d pairs in [%g, %g]", buckets, len(b.recs), b.recs[0].w, b.recs[len(b.recs)-1].w)
		if len(b.recs) > limit && e0 != e1 {
			t.Errorf("replay bucket %d merges %d pairs over exponents %d..%d, above the %d-pair merge limit", buckets, len(b.recs), e0, e1, limit)
		}
	}
	if buckets < 4 {
		t.Errorf("replay tail arrived in %d buckets, want at least 4", buckets)
	}
}

// TestSplitPrefetchReusesCountingPass pins the subdivision prefetch: when
// an oversized bucket splits, the first child must be served from the
// split's own counting pass (no extra enumeration), and the sequence must
// stay exact.
func TestSplitPrefetchReusesCountingPass(t *testing.T) {
	for name, m := range testMetrics(t) {
		want := sortedPairs(m)
		// A tiny cap forces splits on every real bucket.
		src := newBucketedSource(metricEnumeratorFor(m), 13)
		got := drainSource(src, []int{5, 17})
		equalEdgeSeq(t, name, want, got)
	}
	// Pass accounting on a single-bucket instance: weights all in [1, 2),
	// cap 10, n*(n-1)/2 = 120 pairs -> the bucket splits into ~12 children;
	// the prefetch must save at least the first child's collection pass
	// relative to the no-prefetch floor of 1 count + 1 split-count per
	// round + 1 collection per child.
	n := 16
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	w := 1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[i][j], d[j][i] = w, w
			w += 1.0 / 256
		}
	}
	m := tableMetric{d: d}
	want := sortedPairs(m)
	src := newBucketedSource(metricEnumeratorFor(m), 10)
	got := drainSource(src, []int{3})
	equalEdgeSeq(t, "single-bucket", want, got)
	if src.fill.prefetchHits == 0 {
		t.Fatalf("no split collection was served from a prefetch (%d passes total)", src.Passes())
	}
	// Every prefetch hit is one whole enumeration pass the supply did not
	// run; the counters must be consistent with that.
	t.Logf("passes %d, prefetch hits %d", src.Passes(), src.fill.prefetchHits)
}

// listEnumerator enumerates an explicit candidate list, so supply tests
// can build buckets of any weight shape.
type listEnumerator []graph.Edge

func (l listEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) int {
	for _, e := range l {
		if graph.WeightInRange(e.W, lo, hi) {
			fn(e.U, e.V, e.W)
		}
	}
	return len(l)
}

func (l listEnumerator) Histogram(h *geom.Histogram) int {
	for _, e := range l {
		h.Add(e.W)
	}
	return len(l)
}

// radixFamilies are bucket shapes the radix order must get right: tie
// spikes, integer-lattice ties, zeros of both signs with +Inf, subnormals,
// weights spread over many binary exponents (merged buckets), and ids
// near the int32 limit.
func radixFamilies() map[string][]graph.Edge {
	rng := rand.New(rand.NewSource(5))
	fams := make(map[string][]graph.Edge)
	add := func(name string, n, idBase int, weight func(i int) float64) {
		var es []graph.Edge
		for i := 0; i < n; i++ {
			// Distinct (u, v) pairs, as in every candidate set, so the
			// scan order is a total order and comparisons are bit-exact.
			u, v := idBase+i/40, idBase+40+i%40
			es = append(es, graph.Edge{U: u, V: v, W: weight(i)})
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		fams[name] = es
	}
	add("tie-spike", 3000, 0, func(int) float64 { return 1.5 })
	add("integer-lattice", 3000, 0, func(int) float64 {
		dx, dy := rng.Intn(12), rng.Intn(12)
		return math.Sqrt(float64(dx*dx + dy*dy))
	})
	add("zeros-and-inf", 2000, 0, func(i int) float64 {
		switch i % 4 {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1)
		}
		return float64(rng.Intn(3) + 1)
	})
	add("subnormal", 2000, 0, func(int) float64 {
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(64))
	})
	add("many-exponents", 4000, 0, func(int) float64 {
		return math.Ldexp(1+float64(rng.Intn(4))/4, rng.Intn(200)-100)
	})
	add("ids-near-int32-limit", 3000, math.MaxInt32-200, func(int) float64 {
		return float64(rng.Intn(50)) / 8
	})
	add("uniform", 5000, 0, func(int) float64 { return rng.Float64() * 100 })
	return fams
}

// checkRadixOrder sorts edges with the bucket radix sort and with
// graph.SortEdges and requires the same sequence element for element,
// weight bits included.
func checkRadixOrder(t *testing.T, label string, edges []graph.Edge) {
	t.Helper()
	recs := make([]pairRec, len(edges))
	for i, e := range edges {
		recs[i] = pairRec{w: e.W, u: int32(e.U), v: int32(e.V)}
	}
	want := append([]graph.Edge(nil), edges...)
	graph.SortEdges(want)
	sortRecs(recs)
	for i := range want {
		got := recs[i].edge()
		if got.U != want[i].U || got.V != want[i].V || math.Float64bits(got.W) != math.Float64bits(want[i].W) {
			t.Fatalf("%s: position %d: radix order has %+v, SortEdges %+v", label, i, got, want[i])
		}
	}
}

// checkSupplyOrder drains a bucketed supply over edges, with the given
// cap and cut, synchronously and through the producer, and requires
// exactly the SortEdges sequence from the cut on, with everything before
// the cut counted as skipped.
func checkSupplyOrder(t *testing.T, label string, edges []graph.Edge, bucketPairs, cutAt int) {
	t.Helper()
	want := append([]graph.Edge(nil), edges...)
	graph.SortEdges(want)
	for _, producer := range []bool{false, true} {
		src := newBucketedSource(listEnumerator(edges), bucketPairs)
		if cutAt > 0 {
			cut := want[cutAt]
			src.fill.cut = &cut
		}
		if producer {
			src.startProducer()
		}
		got := drainSource(src, []int{7, 1, 300})
		src.joinProducer()
		l := fmt.Sprintf("%s/cap=%d/cut=%d/producer=%v", label, bucketPairs, cutAt, producer)
		equalEdgeSeq(t, l, want[cutAt:], got)
		if src.Skipped() != cutAt {
			t.Fatalf("%s: skipped %d, want %d", l, src.Skipped(), cutAt)
		}
	}
}

// TestBucketRadixOrderMatchesSortEdges is the property behind the
// supply's radix-sorted buckets: on every bucket shape the radix order is
// graph.SortEdges order element for element, and a bucketed supply built
// on it — subdivided, merged, and resumed at a cut that straddles a
// bucket, as an incremental replay resumes — emits exactly the sorted
// sequence from the cut on.
func TestBucketRadixOrderMatchesSortEdges(t *testing.T) {
	for name, edges := range radixFamilies() {
		checkRadixOrder(t, name, edges)
		// A cap of 5 splits nearly every bucket, one counting pass over
		// the whole list each, so it runs on a prefix of the family.
		for _, c := range []struct {
			edges       []graph.Edge
			bucketPairs int
		}{{edges, 0}, {edges, 97}, {edges[:400], 5}} {
			n := len(c.edges)
			for _, cutAt := range []int{0, 1, n / 3, n - 1} {
				checkSupplyOrder(t, name, c.edges, c.bucketPairs, cutAt)
			}
		}
	}
}

// decodeRadixCase turns fuzz bytes into a candidate list of distinct
// (u, v) pairs, a bucket cap, and a cut position. Every three bytes make
// one candidate; the first byte picks a weight shape (zero, -0, +Inf,
// subnormal, integer, lattice distance, a spread of exponents, a tie
// value) and the other two are its operands and its ids. A set high bit
// in data[0] moves all ids next to the int32 limit, its low bits set the
// cap, and data[1] picks the cut.
func decodeRadixCase(data []byte) (edges []graph.Edge, bucketPairs, cutAt int) {
	base := 0
	if data[0]&0x80 != 0 {
		base = math.MaxInt32 - 255
	}
	bucketPairs = 1 + int(data[0]&0x0f)
	seen := make(map[[2]int]bool)
	for i := 2; i+2 < len(data); i += 3 {
		k, a, b := data[i], float64(data[i+1]), float64(data[i+2])
		var w float64
		switch k % 8 {
		case 0:
			w = 0
		case 1:
			w = math.Copysign(0, -1)
		case 2:
			w = math.Inf(1)
		case 3:
			w = math.SmallestNonzeroFloat64 * a
		case 4:
			w = a
		case 5:
			w = math.Sqrt(a*a + b*b)
		case 6:
			w = math.Ldexp(1+a/256, int(b)-128)
		default:
			w = 2.5
		}
		p := [2]int{base + int(data[i+1]), base + int(data[i+2])}
		if seen[p] {
			continue
		}
		seen[p] = true
		edges = append(edges, graph.Edge{U: p[0], V: p[1], W: w})
	}
	if len(edges) > 0 {
		cutAt = int(data[1]) % len(edges)
	}
	return edges, bucketPairs, cutAt
}

// FuzzBucketRadixOrder fuzzes the same property over decoded candidate
// lists; the seed corpus in testdata/fuzz/FuzzBucketRadixOrder covers each
// shape the property test names and replays in ordinary go test runs.
func FuzzBucketRadixOrder(f *testing.F) {
	f.Add([]byte{0x03, 0x02, 7, 1, 2, 7, 3, 4, 7, 5, 6, 7, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 3*512 {
			t.Skip()
		}
		edges, bucketPairs, cutAt := decodeRadixCase(data)
		if len(edges) == 0 {
			t.Skip()
		}
		checkRadixOrder(t, "fuzz", edges)
		checkSupplyOrder(t, "fuzz", edges, bucketPairs, cutAt)
	})
}
