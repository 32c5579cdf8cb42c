package core

import (
	"fmt"
	"math"
	"testing"

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

// TestMaterializedSourceDrain covers the slice-backed source used by the
// Materialize option.
func TestMaterializedSourceDrain(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 1, V: 2, W: 3}}
	src := NewMaterializedSource(edges)
	got := drainSource(src, []int{2})
	equalEdgeSeq(t, "materialized", edges, got)
	if more := src.NextBatch(4); more != nil {
		t.Fatalf("exhausted source returned %v", more)
	}
}

// TestGreedyMetricSupplyParallelEquivalence runs the metric engine through
// every supply mode — default streamed, explicit bucket caps, and the
// materialized fallback — across worker counts and batch widths, and
// demands bit-identical output against the serial dense-matrix reference.
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
					{Workers: workers, Materialize: true},
					{Workers: workers, BucketPairs: 41},
					{Workers: workers, BucketPairs: 41, BatchSize: 9},
					{Workers: workers, Source: NewMetricSource(m, 200)},
				} {
					got, err := GreedyMetricFastParallelOpts(m, stretch, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/t=%v/w=%d/mat=%v/bucket=%d/batch=%d",
						name, stretch, workers, opts.Materialize, opts.BucketPairs, opts.BatchSize)
					equalResults(t, label, want, got)
				}
			}
		}
	}
}

// TestGreedyGraphSupplyParallelEquivalence is the graph-engine
// counterpart: streamed vs materialized supply across worker counts, all
// bit-identical to the sequential GreedyGraph reference.
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
					{Workers: workers, Materialize: true},
					{Workers: workers, BucketPairs: 29},
					{Workers: workers, Source: NewGraphEdgeSource(g, 64)},
				} {
					got, err := GreedyGraphParallelOpts(g, stretch, opts)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/t=%v/w=%d/mat=%v/bucket=%d",
						name, stretch, workers, opts.Materialize, opts.BucketPairs)
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
		res, err := GreedyMetricFastParallel(m, 2, workers)
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
		var counts pairCounts
		n := m.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				counts.add(m.Dist(i, j))
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
func newMetricSourceAfter(m metric.Metric, bucketPairs int, cut graph.Edge, counts pairCounts) *bucketedSource {
	s := newMetricSourceSeeded(m, bucketPairs, counts)
	s.cut = &cut
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

// TestMergedBucketsReducePasses pins the pass-merging optimization: a
// candidate set spread over many small geometric weight buckets must be
// collected in far fewer enumeration passes than buckets (adjacent small
// buckets merge into one collection range up to the pair cap), with the
// emitted sequence unchanged.
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
	if src.prefetchHits == 0 {
		t.Fatalf("no split collection was served from a prefetch (%d passes total)", src.Passes())
	}
	// Every prefetch hit is one whole enumeration pass the supply did not
	// run; the counters must be consistent with that.
	t.Logf("passes %d, prefetch hits %d", src.Passes(), src.prefetchHits)
}
