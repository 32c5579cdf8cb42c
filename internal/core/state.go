package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/graph"
	"repro/internal/metric"
)

// This file is the state-transfer boundary of the maintained spanner: it
// exports the full IncrementalSpanner into a flat, validated SpannerState
// and imports one back, so internal/persist can serialize maintained
// spanners without reaching into engine internals. The durability
// invariant: an imported spanner is update-for-update bit-identical to the
// exported one — same result digest, same accepted sequence after any
// further stream of insertions and deletions — because everything the
// greedy replay's decisions depend on round-trips exactly: the stable-id
// space (tie order), the accepted edge sequence (the preserved prefix),
// the candidate weight histogram (bucket layout and skip accounting),
// epoch-stamped bound rows (cache validity), and the hub set with its
// distance arrays. Scratch
// state is deliberately NOT exported: it is an output-invariant
// accelerator, rebuilt empty on import.

// ResultDigest is the order-sensitive FNV-1a digest of a Result used by
// the trace, persistence, and crash-recovery suites to compare spanners
// for bit-identity: it covers N, EdgesExamined, the Weight bits, and every
// edge's endpoints and weight bits in acceptance order.
func ResultDigest(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(res.N))
	put(uint64(res.EdgesExamined))
	put(math.Float64bits(res.Weight))
	for _, e := range res.Edges {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.W))
	}
	return h.Sum64()
}

// MetricKind identifies how a metric-mode SpannerState stores its point
// data.
type MetricKind uint8

const (
	// MetricNone marks a graph-mode state (no metric payload).
	MetricNone MetricKind = iota
	// MetricEuclidean stores the live points' coordinates (none once every
	// point is deleted; Dim still records the dimension); distances are
	// recomputed on import by the same L2 evaluation and are bit-identical.
	MetricEuclidean
	// MetricMatrix stores the live points' full pairwise distance matrix
	// (the fallback for any Metric implementation, +Inf entries included).
	MetricMatrix
)

// SpannerState is the flattened, serializable form of an
// IncrementalSpanner with no pending operations. All ids in Edges, Live,
// BoundRows, and Hubs are in the engine's internal space: stable ids in
// metric mode (tombstoned ids are the gaps in Live), dense vertex ids in
// graph mode.
type SpannerState struct {
	T         float64
	GraphMode bool
	Policy    IncrementalPolicy

	// Metric mode: the stable-id space and the live points' metric data.
	// Cap is the stable-id capacity (live plus tombstoned ids); Live lists
	// the surviving stable ids in increasing order; the i-th live id is
	// caller-facing dense id i.
	Cap        int
	Live       []int
	MetricKind MetricKind
	Dim        int       // MetricEuclidean: ambient dimension
	Coords     []float64 // MetricEuclidean: len(Live)*Dim, point-major, live order
	Matrix     []float64 // MetricMatrix: len(Live)^2, row-major, live order

	// Graph mode: the maintained input graph.
	GraphN     int
	GraphEdges []graph.Edge

	// The maintained result in the internal id space: the accepted edge
	// sequence in scan order, its ordered weight sum, and the examined-
	// candidate count.
	Edges         []graph.Edge
	Weight        float64
	EdgesExamined int

	// The candidate set's maintained weight histogram (metric mode only;
	// graph mode rebuilds it from GraphEdges). Sparse: HistCount[i]
	// candidates have binary exponent HistExp[i]-geom.ExpOffset.
	HistExp   []int32
	HistCount []int64
	HistZeros int64
	HistInfs  int64

	// Sparse bfloat16 bound rows with proof epochs (metric mode). A nil
	// row was never materialized; a present row has length Cap and
	// BoundEpochs[u] is the accepted-edge prefix it was proven on.
	BoundRows   [][]uint16
	BoundEpochs []int

	// Hub oracle state (empty Hubs = oracle disabled): the hub vertex set,
	// each hub's exact distance array over the maintained spanner (length
	// Cap in metric mode, GraphN in graph mode), the accepted-edge epoch
	// the arrays are synced to (always len(Edges) at export, because
	// export syncs first), and the lifetime deletion-reselection count.
	Hubs           []int
	HubRows        [][]float64
	HubEpoch       int
	HubsReselected int
}

// GraphMode reports whether the spanner maintains a graph input
// (InsertEdges/DeleteEdges) rather than a metric one (InsertPoints or
// InsertRows, and Delete).
func (s *IncrementalSpanner) GraphMode() bool { return s.g != nil }

// LiveN reports the current number of live elements: surviving points in
// metric mode, vertices in graph mode. Unlike Result it never flushes.
func (s *IncrementalSpanner) LiveN() int {
	if s.g != nil {
		return s.g.N()
	}
	return len(s.dyn.live)
}

// Dim reports the coordinate dimension of a Euclidean input, 0 for a
// matrix input or in graph mode.
func (s *IncrementalSpanner) Dim() int {
	if s.dyn == nil {
		return 0
	}
	return s.dyn.dim
}

// Stretch reports the maintained spanner's stretch factor t.
func (s *IncrementalSpanner) Stretch() float64 { return s.t }

// Policy reports the installed replay policy.
func (s *IncrementalSpanner) Policy() IncrementalPolicy { return s.policy }

// ExportState flushes any pending updates and returns the spanner's full
// maintained state in serializable form. The returned state shares no
// mutable storage with the spanner except the metric coordinates, which
// are copied; it remains valid after further updates. A flush error
// aborts the export with the pre-flush state preserved (see Flush).
func (s *IncrementalSpanner) ExportState() (*SpannerState, error) {
	if err := s.Flush(); err != nil {
		return nil, fmt.Errorf("core: export aborted: %w", err)
	}
	st := &SpannerState{
		T:             s.t,
		GraphMode:     s.g != nil,
		Policy:        s.policy,
		Weight:        s.res.Weight,
		EdgesExamined: s.res.EdgesExamined,
	}
	st.Edges = append([]graph.Edge(nil), s.res.Edges...)
	if s.oracle != nil {
		// Quiesce the oracle so the exported arrays are exact on the full
		// maintained spanner and HubEpoch == len(Edges).
		s.oracle.sync()
		st.Hubs = append([]int(nil), s.oracle.hubs...)
		st.HubRows = make([][]float64, len(s.oracle.rows))
		for i, row := range s.oracle.rows {
			st.HubRows[i] = append([]float64(nil), row...)
		}
		st.HubEpoch = s.oracle.epoch
		st.HubsReselected = s.oracle.reselected
	}
	if s.g != nil {
		st.GraphN = s.g.N()
		st.GraphEdges = s.g.EdgesCopy()
		return st, nil
	}
	st.Cap = s.dyn.N()
	st.Live = append([]int(nil), s.dyn.live...)
	ln := len(st.Live)
	st.MetricKind = s.dyn.kind
	if st.MetricKind == MetricEuclidean {
		st.Dim = s.dyn.dim
		st.Coords = make([]float64, 0, ln*st.Dim)
		for _, sid := range st.Live {
			st.Coords = append(st.Coords, s.dyn.pts[sid]...)
		}
	} else {
		st.Matrix = make([]float64, ln*ln)
		for i := 0; i < ln; i++ {
			for j := i + 1; j < ln; j++ {
				w := s.dyn.Dist(st.Live[i], st.Live[j])
				st.Matrix[i*ln+j] = w
				st.Matrix[j*ln+i] = w
			}
		}
	}
	for e, k := range s.counts.Exp {
		if k != 0 {
			st.HistExp = append(st.HistExp, int32(e))
			st.HistCount = append(st.HistCount, int64(k))
		}
	}
	st.HistZeros = int64(s.counts.Zeros)
	st.HistInfs = int64(s.counts.Infs)
	st.BoundRows = make([][]uint16, len(s.bound.rows))
	st.BoundEpochs = make([]int, len(s.bound.epochs))
	copy(st.BoundEpochs, s.bound.epochs)
	for u, row := range s.bound.rows {
		if row != nil {
			st.BoundRows[u] = append([]uint16(nil), row...)
		}
	}
	return st, nil
}

// corrupt builds the import layer's validation error; every path wraps
// ErrCorruptState so callers can test with errors.Is.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("core: import: "+format+": %w", append(args, ErrCorruptState)...)
}

// validateEdges checks an accepted-edge sequence: endpoints in range and
// alive, canonical orientation, weights in [0, +Inf), and scan order
// (non-decreasing in graph.EdgeLess, the order Flush's prefix search
// assumes).
func validateEdges(edges []graph.Edge, n int, dead []bool) error {
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return corrupt("accepted edge %d endpoints (%d, %d) out of range [0, %d)", i, e.U, e.V, n)
		}
		if e.U >= e.V {
			return corrupt("accepted edge %d (%d, %d) not in canonical order", i, e.U, e.V)
		}
		if dead != nil && (dead[e.U] || dead[e.V]) {
			return corrupt("accepted edge %d (%d, %d) touches a tombstoned id", i, e.U, e.V)
		}
		if !(e.W > 0) || math.IsInf(e.W, 1) {
			// Accepted weights are strictly positive and finite: a +Inf
			// candidate always fails its distance test, and a zero-weight
			// one is rejected by the graph layer the scan accepts into.
			return corrupt("accepted edge %d has weight %v outside (0, +Inf)", i, e.W)
		}
		if i > 0 && graph.EdgeLess(e, edges[i-1]) {
			return corrupt("accepted edge %d out of scan order", i)
		}
	}
	return nil
}

// ImportIncremental reconstructs a maintained spanner from an exported
// state. The metric-mode engine options come from mopts and the
// graph-mode ones from gopts (whichever matches st.GraphMode applies;
// opts.Hubs is ignored — the hub set, like everything else, comes from
// the state). The imported spanner is update-for-update bit-identical to
// the exported one. Validation is structural and O(state size): every index,
// length, epoch, and histogram total is checked and a violation returns an
// error wrapping ErrCorruptState; it does not re-verify distances against
// the metric payload (the persistence layer's digests own byte integrity).
//
// The imported spanner keeps st's bound rows, hub rows and coordinates as
// its own instead of copying them, so the caller must not modify st
// afterwards. In metric mode, rows with RowCapacity's headroom (as the
// snapshot decoder allocates them) grow in place on later insertions;
// shorter ones are regrown by the first insertion that needs the room.
func ImportIncremental(st *SpannerState, mopts, gopts Options) (*IncrementalSpanner, error) {
	if st == nil {
		return nil, corrupt("nil state")
	}
	if !validStretch(st.T) {
		return nil, errInvalidStretch(st.T)
	}
	if st.GraphMode {
		return importGraph(st, gopts)
	}
	return importMetric(st, mopts)
}

func importGraph(st *SpannerState, opts Options) (*IncrementalSpanner, error) {
	if st.GraphN < 0 {
		return nil, corrupt("negative vertex count %d", st.GraphN)
	}
	g := graph.New(st.GraphN)
	for i, e := range st.GraphEdges {
		if err := g.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, corrupt("graph edge %d: %v", i, err)
		}
	}
	if err := validateEdges(st.Edges, st.GraphN, nil); err != nil {
		return nil, err
	}
	s := &IncrementalSpanner{t: st.T, g: g, opts: opts, policy: st.Policy}
	graphEdgeEnumerator{g: s.g}.Histogram(&s.counts)
	if err := s.importResult(st, st.GraphN); err != nil {
		return nil, err
	}
	if err := s.importOracle(st, st.GraphN); err != nil {
		return nil, err
	}
	return s, nil
}

func importMetric(st *SpannerState, opts Options) (*IncrementalSpanner, error) {
	ln := len(st.Live)
	if st.Cap < 0 || ln > st.Cap {
		return nil, corrupt("%d live ids exceed stable capacity %d", ln, st.Cap)
	}
	for i, sid := range st.Live {
		if sid < 0 || sid >= st.Cap {
			return nil, corrupt("live id %d out of range [0, %d)", sid, st.Cap)
		}
		if i > 0 && sid <= st.Live[i-1] {
			return nil, corrupt("live ids not strictly increasing at %d", i)
		}
	}
	// Rebuild the input by stable id: the payload holds the survivors in
	// live order, so its j-th point is stable id Live[j].
	d := &dynMetric{kind: st.MetricKind, live: append([]int(nil), st.Live...), dead: make([]bool, st.Cap)}
	for sid := range d.dead {
		d.dead[sid] = true
	}
	for _, sid := range d.live {
		d.dead[sid] = false
	}
	switch st.MetricKind {
	case MetricEuclidean:
		if st.Dim <= 0 || len(st.Coords) != ln*st.Dim {
			return nil, corrupt("%d coordinates, want %d points x dim %d", len(st.Coords), ln, st.Dim)
		}
		pts := splitRows(st.Coords, st.Dim)
		if _, err := metric.NewEuclidean(pts); err != nil {
			return nil, corrupt("points: %v", err)
		}
		d.dim = st.Dim
		d.pts = make([][]float64, st.Cap)
		for j, p := range pts {
			d.pts[st.Live[j]] = p
		}
	case MetricMatrix:
		if _, err := metric.NewFlatMatrix(ln, st.Matrix); err != nil {
			return nil, corrupt("matrix: %v", err)
		}
		d.rows = make([][]float64, st.Cap)
		for j, v := range st.Live {
			d.rows[v] = make([]float64, v)
			for i, u := range st.Live[:j] {
				d.rows[v][u] = st.Matrix[i*ln+j]
			}
		}
	default:
		return nil, corrupt("metric payload kind %d unknown", st.MetricKind)
	}
	d.enumerate()
	if err := validateEdges(st.Edges, st.Cap, d.dead); err != nil {
		return nil, err
	}
	s := &IncrementalSpanner{t: st.T, dyn: d, opts: opts, policy: st.Policy}
	s.anyDeleted = ln < st.Cap
	// The maintained histogram must tally exactly the live candidate
	// pairs; a drifted total would desynchronize the resumed supply's
	// bucket accounting (and EdgesExamined) from the candidate set.
	if len(st.HistExp) != len(st.HistCount) || st.HistZeros < 0 || st.HistInfs < 0 {
		return nil, corrupt("histogram shape mismatch")
	}
	var total int64
	for i, e := range st.HistExp {
		c := st.HistCount[i]
		if int(e) < 0 || int(e) >= len(s.counts.Exp) || c <= 0 {
			return nil, corrupt("histogram bucket %d (exp %d, count %d) invalid", i, e, c)
		}
		s.counts.Exp[e] = int(c)
		total += c
	}
	s.counts.Zeros = int(st.HistZeros)
	s.counts.Infs = int(st.HistInfs)
	total += st.HistZeros + st.HistInfs
	if want := int64(ln) * int64(ln-1) / 2; total != want {
		return nil, corrupt("histogram tallies %d candidates, live set has %d", total, want)
	}
	if err := s.importResult(st, st.Cap); err != nil {
		return nil, err
	}
	if err := s.importBounds(st); err != nil {
		return nil, err
	}
	if err := s.importOracle(st, st.Cap); err != nil {
		return nil, err
	}
	s.resView = s.remapResult(s.res)
	return s, nil
}

// importResult installs the maintained result, re-accumulating the weight
// sum in acceptance order (the exact float64 additions a scan performs)
// and cross-checking it against the stored sum.
func (s *IncrementalSpanner) importResult(st *SpannerState, n int) error {
	res := &Result{N: n, Stretch: st.T, EdgesExamined: st.EdgesExamined}
	if st.EdgesExamined < 0 {
		return corrupt("negative examined count %d", st.EdgesExamined)
	}
	res.Edges = append([]graph.Edge(nil), st.Edges...)
	for _, e := range res.Edges {
		res.Weight += e.W
	}
	if math.Float64bits(res.Weight) != math.Float64bits(st.Weight) {
		return corrupt("weight sum %v does not reproduce stored %v", res.Weight, st.Weight)
	}
	s.res = res
	s.resView = res
	return nil
}

// importBounds installs the sparse bound store (metric mode): rows carry
// their exported epochs, and guard digests are recomputed fresh when the
// options request them.
func (s *IncrementalSpanner) importBounds(st *SpannerState) error {
	n := st.Cap
	if len(st.BoundRows) != n || len(st.BoundEpochs) != n {
		return corrupt("bound store has %d rows and %d epochs, want %d", len(st.BoundRows), len(st.BoundEpochs), n)
	}
	b := newBoundStore(n)
	b.slack = boundRowSlack(n)
	for u, row := range st.BoundRows {
		ep := st.BoundEpochs[u]
		if row == nil {
			if ep != 0 {
				return corrupt("bound row %d absent but epoch %d nonzero", u, ep)
			}
			continue
		}
		if len(row) != n {
			return corrupt("bound row %d has %d entries, want %d", u, len(row), n)
		}
		if ep < 0 || ep > len(st.Edges) {
			return corrupt("bound row %d epoch %d outside [0, %d]", u, ep, len(st.Edges))
		}
		for v, h := range row {
			if h > inf16 {
				return corrupt("bound row %d entry %d is not a bfloat16 distance", u, v)
			}
		}
		if row[u] != 0 {
			return corrupt("bound row %d has nonzero diagonal", u)
		}
		b.rows[u] = row
		b.epochs[u] = ep
	}
	if s.opts.GuardRows {
		b.setGuard()
	}
	s.bound = b
	return nil
}

// importOracle installs the hub oracle (both modes): the hub set and
// arrays come from the state, and the attached spanner is rebuilt from
// the accepted edges. An exported oracle is always synced, so the epoch
// must equal the accepted count.
func (s *IncrementalSpanner) importOracle(st *SpannerState, n int) error {
	if len(st.Hubs) == 0 {
		if len(st.HubRows) != 0 {
			return corrupt("%d hub rows without hubs", len(st.HubRows))
		}
		return nil
	}
	if len(st.HubRows) != len(st.Hubs) {
		return corrupt("%d hub rows for %d hubs", len(st.HubRows), len(st.Hubs))
	}
	if st.HubEpoch != len(st.Edges) {
		return corrupt("hub epoch %d, want the accepted count %d", st.HubEpoch, len(st.Edges))
	}
	if st.HubsReselected < 0 {
		return corrupt("negative hub reselection count")
	}
	seen := make(map[int]bool, len(st.Hubs))
	for i, hv := range st.Hubs {
		if hv < 0 || hv >= n {
			return corrupt("hub %d vertex %d out of range [0, %d)", i, hv, n)
		}
		if seen[hv] {
			return corrupt("hub vertex %d listed twice", hv)
		}
		seen[hv] = true
	}
	o := &HubOracle{
		h:          s.res.Graph(),
		hubs:       append([]int(nil), st.Hubs...),
		search:     graph.NewSearcher(n),
		epoch:      st.HubEpoch,
		live:       st.HubEpoch,
		reselected: st.HubsReselected,
	}
	for i, row := range st.HubRows {
		if len(row) != n {
			return corrupt("hub row %d has %d entries, want %d", i, len(row), n)
		}
		for v, x := range row {
			if math.IsNaN(x) || x < 0 {
				return corrupt("hub row %d entry %d is not a distance", i, v)
			}
		}
	}
	o.rows = st.HubRows
	s.oracle = o
	return nil
}
