package core

import (
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// CandidateSource supplies candidate edges to the greedy engines in the
// exact greedy scan order: non-decreasing weight, ties broken by (U, V).
// NextBatch returns the next at most maxW candidates and nil once the
// supply is exhausted; the returned slice is only valid until the next
// call. A source may return fewer than maxW candidates while more remain
// (the bucketed sources stop at bucket boundaries), so callers must treat
// only an empty result as end of supply.
//
// The engines drain the streamed weight-bucketed supply, whose resident
// set scales with the largest weight bucket instead of with the full
// candidate set: the classic pipeline materializes all n(n-1)/2
// interpoint pairs and sorts them globally before the first greedy
// decision, while the streamed supply produces and sorts one bounded
// bucket at a time. NewMetricSource and NewGraphEdgeSource return it for
// callers that drain it directly.
type CandidateSource interface {
	NextBatch(maxW int) []graph.Edge
}

// pairEnumerator produces the raw (unsorted) candidate pairs of one weight
// range. Pairs must call fn exactly once for every unordered candidate
// pair (u, v) with u < v and weight in the range (see weightInRange), in
// any order. Enumeration must be deterministic in w: repeated calls see
// identical weights, so a pair is assigned to exactly one range of a
// partition. Histogram tallies every candidate's weight, as Pairs over
// the whole weight axis would report them. Both return the number of
// candidate weights they computed or read (Stats.SupplyEvaluated).
type pairEnumerator interface {
	Pairs(lo, hi float64, fn func(u, v int, w float64)) int
	Histogram(h *geom.Histogram) int
}

// Enumerators share graph.WeightInRange as the range predicate, so
// infinite weights (a custom metric's "disconnected" sentinel) flow
// through the counting pass and the dedicated final bucket exactly once
// instead of being dropped — the serial reference examines them too. NaN
// weights are outside every range; the greedy scan order is undefined for
// them on any path.

// metricEnumerator enumerates all n(n-1)/2 pairs of a metric by brute
// force, filtering on the weight range. O(n^2) distance evaluations per
// call and zero retained memory.
type metricEnumerator struct {
	m metric.Metric
}

func (e metricEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) int {
	n := e.m.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := e.m.Dist(i, j); graph.WeightInRange(w, lo, hi) {
				fn(i, j, w)
			}
		}
	}
	return n * (n - 1) / 2
}

func (e metricEnumerator) Histogram(h *geom.Histogram) int {
	n := e.m.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h.Add(e.m.Dist(i, j))
		}
	}
	return n * (n - 1) / 2
}

// graphEdgeEnumerator enumerates a graph's own edge list, the candidate
// set of the graph engines. One O(m) scan per call, no copy of the list.
type graphEdgeEnumerator struct {
	g *graph.Graph
}

func (e graphEdgeEnumerator) Pairs(lo, hi float64, fn func(u, v int, w float64)) int {
	e.g.EdgesInRange(lo, hi, func(ed graph.Edge) {
		fn(ed.U, ed.V, ed.W)
	})
	return e.g.M()
}

func (e graphEdgeEnumerator) Histogram(h *geom.Histogram) int {
	for _, ed := range e.g.Edges() {
		h.Add(ed.W)
	}
	return e.g.M()
}

// DefaultBucketPairs is the default cap on the candidate pairs a bucketed
// source holds materialized at once, counted in 24-byte graph.Edge units;
// see Options.BucketPairs. Buckets larger than the cap are subdivided
// into narrower weight ranges before materialization, so peak supply
// memory is O(cap) at the price of one extra counting pass per
// subdivision.
const DefaultBucketPairs = 1 << 19

// maxSubranges bounds how many sub-ranges one oversized bucket is split
// into per pass; deeper recursion handles the rest.
const maxSubranges = 64

// mergeShare and minMergePairs bound how far open merges adjacent weight
// buckets: a merged bucket stops growing at 1/mergeShare of the candidate
// set, or at minMergePairs pairs when that is more. So no bucket gathers
// the whole set by merging, and the scan certifies the first bucket while
// the producer fills the next; small sets still take one pass.
const (
	mergeShare    = 8
	minMergePairs = 1 << 14
)

// interval is one pending weight range [lo, hi) of a bucketed source with
// its known candidate count. noSplit marks ranges that subdivision cannot
// shrink (all candidates share one weight), which are materialized whole.
type interval struct {
	lo, hi  float64
	count   int
	noSplit bool
}

// pairRec is one candidate of a materialized bucket: 16 bytes against a
// graph.Edge's 24, which is what lets two buckets be resident at once —
// the one the scan certifies and the one being filled behind it — in the
// bytes one bucket of edges used to take. Vertex ids must fit in int32.
type pairRec struct {
	w    float64
	u, v int32
}

// recBytes is the size of a pairRec.
const recBytes = 16

func (r pairRec) edge() graph.Edge { return graph.Edge{U: int(r.u), V: int(r.v), W: r.w} }

// bucketedSource is the streaming candidate supply: candidates are
// partitioned into geometric weight buckets [2^(e-1), 2^e) by one counting
// pass, and only the active bucket is ever materialized and sorted — a
// few linear radix passes per bucket instead of one global O(N log N)
// sort, with peak memory O(max bucket) instead of O(N) for N candidates. Buckets
// larger than the cap are subdivided into narrower equal-width ranges (an
// extra counting pass each) until they fit, so the cap really is the peak.
//
// The source is the consuming half: it holds the sorted bucket being
// served and converts each requested batch into edges. The buckets come
// from a bucketFill, which the source drives inline (the synchronous
// standalone supply) or which a producer goroutine owns while a scan
// drains the source (see startProducer). Either way the same fill emits the
// same buckets, so the candidate sequence and the counters are identical.
type bucketedSource struct {
	// fill produces the buckets; nil while a producer owns it.
	fill *bucketFill
	// cur is the bucket being served from position pos; out is the reused
	// edge buffer NextBatch returns.
	cur []pairRec
	pos int
	out []graph.Edge
	// The fill's counters as of the last bucket received.
	peak, passes, skipped, evaluated int
	// done marks the end of the supply, or a source whose producer was
	// stopped early (its fill went with the producer).
	done bool
	// prod is the running producer, nil when the source is synchronous.
	prod *producer
}

// bucketFill is the producing half of the streamed supply: the weight
// intervals still to materialize, the cut, the enumerator, and the pass
// counters. It is owned by one goroutine at a time — the source's while
// the source is synchronous, the producer's while a scan drains it — and
// hands everything the consumer needs over by value in a filled.
type bucketFill struct {
	enum   pairEnumerator
	cap    int
	queue  []interval
	opened bool
	// cut, when non-nil, suppresses every candidate that precedes it in
	// scan order: whole weight buckets strictly below cut.W are dropped by
	// count alone — never enumerated, materialized, or sorted — and the
	// one bucket straddling the cut is filtered after its sort. Dropped
	// candidates are tallied in skipped so callers can keep exact
	// examined-pair accounting. This is how the incremental engine resumes
	// a greedy scan at the first position an inserted candidate occupies.
	cut *graph.Edge
	// skipped counts candidates suppressed by cut.
	skipped int
	// seed, when non-nil, replaces open's counting pass: the caller
	// already knows the candidate set's weight histogram (the incremental
	// engine maintains it across insertions), so the source never has to
	// enumerate the full candidate set just to bucket it.
	seed *geom.Histogram
	// alloc is a bucket buffer's target capacity, fixed at open time to
	// min(cap, largest bucket count) so each buffer serves every bucket
	// without repeated regrowth garbage.
	alloc int
	// peak tracks the largest materialized bucket, for benchmarks.
	peak int
	// prefetchIv/prefetchOK mark that the buffer being filled already
	// holds the pairs of interval prefetchIv, collected for free during a
	// split's counting pass (the pass visits every pair of the parent
	// anyway); next then serves that child without re-enumerating it.
	// Collection is abandoned the moment the child exceeds cap, so the
	// buffer never outgrows its usual bound.
	prefetchIv   interval
	prefetchOK   bool
	prefetchHits int
	// passes counts enumeration passes (counting, subdivision, and
	// collection), the supply's dominant repeated cost on brute-force
	// enumerators; benchmarks record it to track pass-merging wins.
	// evaluated sums the candidate weights those passes computed or read.
	passes, evaluated int
}

// filled is one bucket as a fill hands it over: the sorted records (nil
// at the end of the supply), the position of the first record at or past
// the cut, and the fill's counters as of this bucket. panic carries a
// producer's panic to the consumer, which re-raises it.
type filled struct {
	recs                             []pairRec
	start                            int
	peak, passes, skipped, evaluated int
	panic                            any
}

// newBucketedSource wraps enum with bucket-size cap bucketPairs. With
// bucketPairs <= 0 the cap is chosen at open time as
// max(DefaultBucketPairs, total/32): large instances trade a slightly
// larger peak bucket for far fewer subdivision passes.
func newBucketedSource(enum pairEnumerator, bucketPairs int) *bucketedSource {
	return &bucketedSource{fill: &bucketFill{enum: enum, cap: max(bucketPairs, 0)}}
}

// metricEnumeratorFor picks the pair enumerator for m: the grid-bucketed
// enumerator of internal/geom for Euclidean metrics, brute force
// otherwise.
func metricEnumeratorFor(m metric.Metric) pairEnumerator {
	if pe, ok := m.(pairEnumerator); ok {
		// A metric that enumerates its own pairs (the incremental engine's
		// tombstone-aware view) supplies them directly: it filters deleted
		// pairs at collection, so the supply never sees a dead candidate.
		return pe
	}
	if eu, ok := m.(*metric.Euclidean); ok && eu.N() > 0 {
		pts := make([][]float64, eu.N())
		for i := range pts {
			pts[i] = eu.Point(i)
		}
		// The grid computes weights with geom.Dist, the routine m.Dist
		// calls, so streamed weights are bit-identical to the metric's.
		return geom.NewGridEnumerator(pts)
	}
	return metricEnumerator{m: m}
}

// NewMetricSource returns the streaming candidate supply over all
// n(n-1)/2 interpoint pairs of m in greedy scan order. Euclidean metrics
// get the grid-bucketed enumerator of internal/geom, which produces a
// weight bucket by scanning only grid cells within the bucket's distance —
// farther pairs are never touched; all other metrics get the brute-force
// enumerator (one O(n^2) distance pass per bucket, still O(bucket)
// memory). bucketPairs <= 0 selects DefaultBucketPairs.
func NewMetricSource(m metric.Metric, bucketPairs int) CandidateSource {
	return newBucketedSource(metricEnumeratorFor(m), bucketPairs)
}

// newMetricSourceSeeded is NewMetricSource with the counting pass replaced
// by a caller-maintained weight histogram; see bucketFill.seed.
func newMetricSourceSeeded(m metric.Metric, bucketPairs int, counts geom.Histogram) *bucketedSource {
	s := newBucketedSource(metricEnumeratorFor(m), bucketPairs)
	s.fill.seed = &counts
	return s
}

// NewGraphEdgeSource returns the streaming supply over g's edge list in
// greedy scan order. It replaces the sorted O(m) copy of SortedEdges with
// per-bucket collection: one O(m) counting pass, then for each weight
// bucket an O(m) filter pass plus an O(B log B) sort of just that bucket.
// bucketPairs <= 0 selects DefaultBucketPairs.
func NewGraphEdgeSource(g *graph.Graph, bucketPairs int) CandidateSource {
	return newBucketedSource(graphEdgeEnumerator{g: g}, bucketPairs)
}

// newGraphEdgeSourceSeeded is NewGraphEdgeSource with a caller-maintained
// weight histogram; see newMetricSourceSeeded.
func newGraphEdgeSourceSeeded(g *graph.Graph, bucketPairs int, counts geom.Histogram) *bucketedSource {
	s := newBucketedSource(graphEdgeEnumerator{g: g}, bucketPairs)
	s.fill.seed = &counts
	return s
}

// open partitions the candidate weights into geometric buckets keyed by
// binary exponent: bucket e holds weights in [2^(e-1), 2^e). The
// histogram comes from the seed when the caller maintains one, otherwise
// from a single counting pass over the enumerator. Exponent extraction is
// exactly monotone in the weight, so bucket order is scan order; zero
// weights (degenerate inputs) get a dedicated first bucket. Adjacent
// buckets then merge up to the merge limit (see mergeShare).
//
// The resolved cap is the bytes budget of two 16-byte record buffers
// standing in for one bucket of 24-byte edges, so each bucket holds at
// most three quarters of it: the bucket being certified and the one being
// filled behind it never hold more than one bucket of edges did.
func (f *bucketFill) open() {
	f.opened = true
	counts := f.seed
	if counts == nil {
		counts = &geom.Histogram{}
		f.passes++
		f.evaluated += f.enum.Histogram(counts)
	}
	first := math.Inf(1)
	total := counts.Total()
	if f.cap == 0 {
		f.cap = DefaultBucketPairs
		if auto := total / 32; auto > f.cap {
			f.cap = auto
		}
	}
	f.cap = max(f.cap/4*3+f.cap%4*3/4, 1) // three quarters, without overflow
	for e, k := range counts.Exp {
		if k == 0 {
			continue
		}
		lo := math.Ldexp(1, e-geom.ExpOffset-1)
		hi := math.Ldexp(1, e-geom.ExpOffset)
		if lo < first {
			first = lo
		}
		f.queue = append(f.queue, interval{lo: lo, hi: hi, count: k})
	}
	if counts.Zeros > 0 {
		// Cap below +Inf so the zero bucket can never swallow the
		// infinite-weight bucket when no finite weights exist.
		if math.IsInf(first, 1) {
			first = math.MaxFloat64
		}
		f.queue = append([]interval{{lo: 0, hi: first, count: counts.Zeros, noSplit: true}}, f.queue...)
	}
	if counts.Infs > 0 {
		// Infinite weights scan last, after every finite bucket.
		f.queue = append(f.queue, interval{lo: math.Inf(1), hi: math.Inf(1), count: counts.Infs, noSplit: true})
	}
	if f.cut != nil {
		// Drop every interval wholly before the cut by its count alone:
		// finite-hi intervals hold weights strictly below hi, so hi <=
		// cut.W puts all of them strictly before the cut in scan order.
		// The infinite-weight interval (lo = +Inf) can tie cut.W and is
		// always kept for the post-sort filter in next.
		kept := f.queue[:0]
		for _, iv := range f.queue {
			if !math.IsInf(iv.lo, 1) && iv.hi <= f.cut.W {
				f.skipped += iv.count
				continue
			}
			kept = append(kept, iv)
		}
		f.queue = kept
	}
	// Merge runs of adjacent small buckets into one collection pass: the
	// geometric buckets partition the weight axis in scan order, so a
	// merged range [lo_a, hi_b) enumerates, sorts, and emits exactly the
	// concatenation the individual buckets would — one pass instead of
	// several. The merge limit keeps the peak bucket bound intact and
	// keeps any merged bucket to a share of the whole set. The dedicated
	// infinite-weight bucket stays unmerged (next's finite-only filter
	// depends on its identity).
	limit := min(f.cap, max(total/mergeShare, minMergePairs))
	merged := f.queue[:0]
	for _, iv := range f.queue {
		if n := len(merged); n > 0 {
			prev := &merged[n-1]
			if !math.IsInf(iv.lo, 1) && prev.count+iv.count <= limit {
				prev.hi = iv.hi
				prev.count += iv.count
				prev.noSplit = false
				continue
			}
		}
		merged = append(merged, iv)
	}
	f.queue = merged
	for _, iv := range f.queue {
		if iv.count > f.alloc {
			f.alloc = iv.count
		}
	}
	if f.alloc > f.cap {
		f.alloc = f.cap // oversized buckets are subdivided before collection
	}
}

// buffers opens the fill and returns the record buffers a producer
// starts with: when the layout holds more than one bucket, the two halves
// of one allocation (one is filled while the other is certified, and the
// two are recycled for every later bucket); otherwise one buffer, which
// next allocates on first use.
func (f *bucketFill) buffers() [][]pairRec {
	if !f.opened {
		f.open()
		if len(f.queue) > 1 || len(f.queue) == 1 && f.queue[0].count > f.cap {
			slab := make([]pairRec, 2*f.alloc)
			return [][]pairRec{slab[:0:f.alloc], slab[f.alloc:f.alloc]}
		}
	}
	return [][]pairRec{nil}
}

// next materializes the next non-empty bucket into buf (replaced when too
// small), subdividing oversized weight ranges first, sorts it, and marks
// the prefix before the cut. The returned filled has nil recs once the
// supply is done.
func (f *bucketFill) next(buf []pairRec) filled {
	if !f.opened {
		f.open()
	}
	for len(f.queue) > 0 {
		iv := f.queue[0]
		f.queue = f.queue[1:]
		if iv.count == 0 {
			continue
		}
		if f.cut != nil && !math.IsInf(iv.lo, 1) && iv.hi <= f.cut.W {
			// A subdivision child that fell wholly below the cut: skip it
			// by count, like the whole buckets dropped at open time.
			if f.prefetchOK && iv.lo == f.prefetchIv.lo && iv.hi == f.prefetchIv.hi {
				f.prefetchOK = false
			}
			f.skipped += iv.count
			continue
		}
		if iv.count > f.cap && !iv.noSplit {
			var sub []interval
			if sub, buf = f.split(iv, buf); sub != nil {
				f.queue = append(sub, f.queue...)
				continue
			}
			// Unsplittable (weights too close); fall through and
			// materialize whole.
		}
		if f.prefetchOK && iv.lo == f.prefetchIv.lo && iv.hi == f.prefetchIv.hi {
			// The split's counting pass already left this child's pairs in
			// buf; skip the enumeration pass.
			f.prefetchOK = false
			f.prefetchHits++
		} else {
			buf = f.reserve(buf, iv.count)
			// The top finite bucket's hi overflows Ldexp to +Inf (weights in
			// [2^1023, MaxFloat64]), and WeightInRange admits w == +Inf at an
			// infinite hi — but infinite weights belong exclusively to the
			// dedicated last interval (lo == +Inf), where the counting pass
			// tallied them. Filter them out of finite-lo collections so no
			// candidate is ever emitted twice.
			finiteOnly := !math.IsInf(iv.lo, 1) && math.IsInf(iv.hi, 1)
			f.passes++
			f.evaluated += f.enum.Pairs(iv.lo, iv.hi, func(u, v int, w float64) {
				if finiteOnly && math.IsInf(w, 1) {
					return
				}
				buf = append(buf, pairRec{w: w, u: int32(u), v: int32(v)})
			})
		}
		if len(buf) == 0 {
			continue
		}
		sortRecs(buf)
		f.peak = max(f.peak, len(buf))
		start := 0
		if f.cut != nil {
			// The bucket straddling the cut: drop the sorted prefix that
			// precedes the cut. Buckets partition the weight axis in scan
			// order, so once one candidate at or past the cut is emitted,
			// every later bucket is past it too and the filter retires.
			for start < len(buf) && graph.EdgeLess(buf[start].edge(), *f.cut) {
				start++
			}
			f.skipped += start
			if start == len(buf) {
				buf = buf[:0]
				continue // whole bucket before the cut
			}
			f.cut = nil
		}
		return filled{recs: buf, start: start, peak: f.peak, passes: f.passes, skipped: f.skipped, evaluated: f.evaluated}
	}
	return filled{peak: f.peak, passes: f.passes, skipped: f.skipped, evaluated: f.evaluated}
}

// reserve returns buf emptied, with room for count records: a buffer
// below the open-time target is replaced at that target, so later
// (larger) buckets reuse the same backing array instead of leaving a
// trail of garbage; only unsplittable tie spikes can exceed it.
func (f *bucketFill) reserve(buf []pairRec, count int) []pairRec {
	if cap(buf) < count {
		return make([]pairRec, 0, max(f.alloc, count))
	}
	return buf[:0]
}

// split subdivides iv into up to maxSubranges equal-width sub-ranges with
// one counting pass, returning them in weight order with buf. It returns
// nil sub-ranges when the width cannot be subdivided further — boundaries
// collapse or the range is already within relative rounding width of a
// single weight (a tie spike, which no weight partition can split below
// the cap). A child that absorbs the whole parent is re-split on its
// narrower range when popped, so skewed distributions still converge to
// the cap; the width guard bounds that recursion to a few dozen counting
// passes.
func (f *bucketFill) split(iv interval, buf []pairRec) ([]interval, []pairRec) {
	if iv.hi-iv.lo <= iv.lo*1e-12 {
		return nil, buf
	}
	k := (iv.count + f.cap - 1) / f.cap
	if k > maxSubranges {
		k = maxSubranges
	}
	bounds := make([]float64, k+1)
	bounds[0], bounds[k] = iv.lo, iv.hi
	for j := 1; j < k; j++ {
		bounds[j] = iv.lo + (iv.hi-iv.lo)*float64(j)/float64(k)
	}
	for j := 1; j <= k; j++ {
		if !(bounds[j] > bounds[j-1]) {
			return nil, buf
		}
	}
	counts := make([]int, k)
	// Collect the first sub-range's pairs while counting: the pass visits
	// every pair of the parent anyway, and the first child is the next
	// range next materializes, so a complete collection (abandoned the
	// moment the child exceeds cap, keeping the memory bound) saves that
	// child's whole enumeration pass. buf is free for this: it is the
	// buffer the current call of next is filling.
	collecting := true
	f.prefetchOK = false
	buf = f.reserve(buf, f.alloc)
	f.passes++
	f.evaluated += f.enum.Pairs(iv.lo, iv.hi, func(u, v int, w float64) {
		// Locate the sub-range with lo <= w < hi; ranges partition
		// [iv.lo, iv.hi) so linear probing from the top is exact.
		j := k - 1
		for j > 0 && w < bounds[j] {
			j--
		}
		counts[j]++
		if j == 0 && collecting {
			if counts[0] > f.cap {
				collecting = false
				buf = buf[:0]
			} else {
				buf = append(buf, pairRec{w: w, u: int32(u), v: int32(v)})
			}
		}
	})
	sub := make([]interval, 0, k)
	for j := 0; j < k; j++ {
		if counts[j] == 0 {
			continue
		}
		sub = append(sub, interval{lo: bounds[j], hi: bounds[j+1], count: counts[j]})
	}
	if collecting && counts[0] > 0 {
		f.prefetchIv = interval{lo: bounds[0], hi: bounds[1], count: counts[0]}
		f.prefetchOK = true
	}
	return sub, buf
}

// sortRecs sorts a bucket into greedy scan order — exactly graph.EdgeLess
// order — with an in-place MSD radix sort over a 128-bit key: the
// weight's bits, then u, then v. Bucket weights are non-negative, and the
// bits of non-negative float64s order like their values once -0 is
// folded onto +0 (clearing the sign bit does exactly that; no bucket
// holds a negative weight or a NaN), while non-negative int32 ids order
// like their bits, so the key order is the scan order, ties included.
// Equal keys are identical candidates, so the sort's instability is
// unobservable.
func sortRecs(a []pairRec) { radixSort(a, 0) }

// recHi and recLo are the two halves of r's sort key.
func recHi(r *pairRec) uint64 { return math.Float64bits(r.w) &^ (1 << 63) }
func recLo(r *pairRec) uint64 { return uint64(uint32(r.u))<<32 | uint64(uint32(r.v)) }

// recLess is the key order sortRecs sorts by.
func recLess(a, b *pairRec) bool {
	if ka, kb := recHi(a), recHi(b); ka != kb {
		return ka < kb
	}
	return recLo(a) < recLo(b)
}

// digitAt returns the 8 key bits of r starting at bit p, counted from
// the most significant bit of the 128-bit key.
func digitAt(r *pairRec, p uint) int {
	if p >= 64 {
		return int(recLo(r) << (p - 64) >> 56)
	}
	x := recHi(r) << p
	if p > 56 {
		x |= recLo(r) >> (64 - p)
	}
	return int(x >> 56)
}

// firstDiffBit returns the first key bit, from p on, at which two of a's
// keys differ (128 when all are equal); every key agrees on the bits
// before p.
func firstDiffBit(a []pairRec, p uint) uint {
	hi0, lo0 := recHi(&a[0]), recLo(&a[0])
	var hi, lo uint64
	for i := range a {
		hi |= recHi(&a[i]) ^ hi0
		lo |= recLo(&a[i]) ^ lo0
	}
	switch {
	case hi != 0:
		return max(p, uint(bits.LeadingZeros64(hi)))
	case lo != 0:
		return max(p, 64+uint(bits.LeadingZeros64(lo)))
	}
	return 128
}

// radixSmall is the slice length below which radixSort hands over to an
// insertion sort.
const radixSmall = 32

// radixSort sorts a, whose keys agree on every bit before p, by the key
// bits from p on: one counting pass over the 8-bit digit at p, an
// in-place permutation into the 256 digit buckets (American flag sort),
// and a recursion into each bucket at p+8. A digit every key shares
// jumps p straight to the first bit that differs, so the first split of
// a bucket — whose weights share their exponent bits — is a full 256-way
// split of the leading mantissa bits, and tie runs cost one scan.
func radixSort(a []pairRec, p uint) {
	for p < 128 && len(a) > radixSmall {
		var count [256]int
		for i := range a {
			count[digitAt(&a[i], p)]++
		}
		if count[digitAt(&a[0], p)] == len(a) {
			p = firstDiffBit(a, p)
			continue
		}
		var head, tail [256]int
		sum := 0
		for b, c := range count {
			head[b] = sum
			sum += c
			tail[b] = sum
		}
		for b := range head {
			for head[b] < tail[b] {
				r := a[head[b]]
				for k := digitAt(&r, p); k != b; k = digitAt(&r, p) {
					r, a[head[k]] = a[head[k]], r
					head[k]++
				}
				a[head[b]] = r
				head[b]++
			}
		}
		lo := 0
		for _, c := range count {
			if c > 1 {
				radixSort(a[lo:lo+c], p+8)
			}
			lo += c
		}
		return
	}
	if p < 128 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && recLess(&a[j], &a[j-1]); j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
	}
}

// NextBatch returns the next at most maxW candidates in greedy scan
// order, converting only them from the bucket's records into the reused
// edge buffer.
func (s *bucketedSource) NextBatch(maxW int) []graph.Edge {
	if maxW < 1 {
		maxW = 1
	}
	for s.pos >= len(s.cur) {
		if !s.advance() {
			return nil
		}
	}
	hi := min(s.pos+maxW, len(s.cur))
	out := s.out[:0]
	for _, r := range s.cur[s.pos:hi] {
		out = append(out, r.edge())
	}
	s.out, s.pos = out, hi
	return out
}

// advance moves to the next bucket — the producer's next hand-over while
// one runs, otherwise filled inline into the drained bucket's buffer —
// and reports false at the end of the supply.
func (s *bucketedSource) advance() bool {
	if s.done {
		return false
	}
	var b filled
	if p := s.prod; p != nil {
		if s.cur != nil {
			p.free <- s.cur
		}
		b = <-p.full
		if b.panic != nil {
			s.cur, s.done = nil, true
			panic(b.panic)
		}
	} else {
		b = s.fill.next(s.cur)
	}
	s.cur, s.pos = b.recs, b.start
	s.peak, s.passes, s.skipped, s.evaluated = b.peak, b.passes, b.skipped, b.evaluated
	s.done = b.recs == nil
	return !s.done
}

// producer is the hand-over between a scan and the goroutine that fills
// its supply's next bucket while the scan certifies the current one.
type producer struct {
	// full carries sorted buckets in scan order, then the end of the
	// supply; free returns drained buffers for refilling; closing stop
	// abandons the supply; done is closed when the goroutine has exited.
	full chan filled
	free chan []pairRec
	stop chan struct{}
	done chan struct{}
}

// startProducer starts a producer goroutine that fills bucket k+1 while
// the caller consumes bucket k, handing it the source's fill outright.
// Every start must be paired with a joinProducer, on every exit path. It
// is a no-op on a source that already has a producer or is done.
func (s *bucketedSource) startProducer() {
	if s.prod != nil || s.done {
		return
	}
	p := &producer{
		full: make(chan filled),
		// Room for both buffers, so handing one back never blocks.
		free: make(chan []pairRec, 2),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go produceBuckets(s.fill, p.full, p.free, p.stop, p.done)
	s.fill, s.prod = nil, p
}

// joinProducer stops the producer, if one runs, and waits for it to
// exit. After a join the source is done: its fill went with the
// producer, which may have been mid-bucket, so a source stopped before
// its end reports the end of the supply rather than resuming.
func (s *bucketedSource) joinProducer() {
	p := s.prod
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	s.prod, s.cur, s.done = nil, nil, true
}

// produceBuckets is the producer goroutine. It owns f outright — handed
// over by parameter, never touched by the scan again — and everything it
// produces leaves through full by value. It holds at most one buffer
// beyond the one the scan is certifying, exits after sending the end of
// the supply or as soon as stop is closed, and closes done on every path.
// A panic (an enumerator's) is sent on to the consumer, which re-raises
// it where a synchronous supply would have raised it.
func produceBuckets(f *bucketFill, full chan<- filled, free <-chan []pairRec, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer func() {
		if p := recover(); p != nil {
			select {
			case full <- filled{panic: p}:
			case <-stop:
			}
		}
	}()
	bufs := f.buffers()
	for k := 0; ; k++ {
		var buf []pairRec
		if k < len(bufs) {
			buf = bufs[k]
		} else {
			select {
			case buf = <-free:
			case <-stop:
				return
			}
		}
		b := f.next(buf)
		select {
		case full <- b:
		case <-stop:
			return
		}
		if b.recs == nil {
			return
		}
	}
}

// PeakBucket reports the largest number of candidates the source has
// materialized in one bucket; with a producer running the source holds at
// most two buckets, so its resident records are at most twice this.
func (s *bucketedSource) PeakBucket() int { return s.peak }

// Skipped reports how many candidates the cut suppressed. It is complete
// once the source has been drained; the engines fold it into
// EdgesExamined so a resumed scan accounts for exactly the candidates a
// full scan examines.
func (s *bucketedSource) Skipped() int { return s.skipped }

// Passes reports how many enumeration passes (counting, subdivision, and
// collection) the source has issued — the repeated-pass cost the merged
// buckets and the subdivision prefetch eliminate; benchmarks record it.
func (s *bucketedSource) Passes() int { return s.passes }

// Evaluated reports how many candidate weights the source's enumeration
// passes computed or read, the counting pass included.
func (s *bucketedSource) Evaluated() int { return s.evaluated }
