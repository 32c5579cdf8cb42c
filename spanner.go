// Package spanner is the public API of this repository: a Go implementation
// of the greedy spanner and its companions from "The Greedy Spanner is
// Existentially Optimal" (Filtser & Solomon, PODC 2016).
//
// The package exposes three families of constructions:
//
//   - Greedy / GreedyParallelOpts and GreedyMetric /
//     GreedyMetricParallelOpts — Algorithm 1 of the paper: the greedy
//     t-spanner for weighted graphs and finite metric spaces,
//     existentially optimal in size and lightness (Theorems 4 and 5),
//     one plain entry and one options entry per input kind. Both
//     engines share the batched-certification architecture: sorted
//     candidates are scanned in adaptive batches, skips are certified
//     concurrently against a frozen spanner snapshot (bounded
//     bidirectional Dijkstra on graphs; cached bound-row refreshes on
//     metrics), and the survivors are re-checked serially in greedy
//     order — so parallel output is deterministic and bit-identical to
//     the sequential scan while construction runs across all cores.
//     Candidates are streamed from a weight-bucketed CandidateSource
//     (grid-bucketed on Euclidean metrics) and metric distance bounds
//     live in sparse rows allocated on first refresh, so memory scales
//     with the active weight bucket and the spanner's working set
//     instead of the Θ(n²) materialize-then-sort pipeline; see
//     GreedyMetricParallelOpts and GreedyParallelOpts for the knobs.
//     The Hubs option adds the hub-label certification fast path:
//     maintained landmark distance arrays over the growing spanner
//     answer most skip certifications in O(k) with no search at all —
//     hub bounds are upper bounds, so output stays bit-identical with
//     hubs on or off.
//   - NewIncremental / NewIncrementalGraph — the fully dynamic
//     maintained greedy spanner: point insertions and deletions
//     (metrics) and edge insertions and deletions (graphs) after the
//     initial build, each batch replayed from the first scan position it
//     disturbs — deletions rebase cached state backward onto
//     checkpointed snapshots — with the result bit-identical to a
//     from-scratch greedy build on the surviving input.
//   - Save / Load / OpenDurable — the durability layer for the
//     maintained spanner: versioned, digest-guarded binary snapshots of
//     the full dynamic state plus a write-ahead log of dynamic
//     operations, so a process can stop (or crash) at any instant and
//     resume with a state bit-identical to the uninterrupted run.
//   - ApproxGreedy — the O(n log n)-style approximate-greedy algorithm for
//     doubling metrics (Section 5, Theorem 6), with constant lightness and
//     degree.
//   - Verification utilities — stretch, lightness, MST containment, and the
//     Lemma 3 self-spanner property, so downstream users can audit any
//     spanner against the paper's definitions.
//
// Quick start:
//
//	g := spanner.NewGraph(4)
//	g.MustAddEdge(0, 1, 1)
//	g.MustAddEdge(1, 2, 1)
//	g.MustAddEdge(2, 3, 1)
//	g.MustAddEdge(3, 0, 1)
//	res, err := spanner.Greedy(g, 3)
//	// res.Edges is the greedy 3-spanner edge set.
//
// Vertices are dense integers in [0, n); weights are positive float64s.
package spanner

import (
	"errors"
	"math/rand"
	"os"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/verify"
)

// Graph re-exports the weighted undirected graph type used across the API.
type Graph = graph.Graph

// Edge re-exports the weighted undirected edge type.
type Edge = graph.Edge

// Result re-exports the spanner construction result. When a build is
// cancelled or faulted, the Result returned alongside the typed error has
// Partial set and holds the exact decided prefix of the complete build's
// edge sequence — never a corrupt or half-applied state.
type Result = core.Result

// Budget re-exports the engines' resource budget: a byte cap on the
// estimated working set, a batch-width cap, and a deadline. Budgeted runs
// degrade gracefully down an output-invariant ladder (materialized →
// streamed supply, shrink batch width, drop the hub oracle, drop cached
// bound rows), recording each step in the stats' Degradations log.
type Budget = core.Budget

// Typed failure sentinels, matched with errors.Is. Every engine error
// wraps exactly one of these (or ErrInvalidInput for rejected arguments).
var (
	// ErrInvalidInput is wrapped by every input-validation rejection:
	// non-finite or non-positive edge weights, out-of-range or equal
	// endpoints, NaN/Inf coordinates, malformed distance matrices, and
	// out-of-range stretch values.
	ErrInvalidInput = graph.ErrInvalidInput
	// ErrCancelled is wrapped when a build is stopped by its context or
	// budget deadline; the accompanying Result is the clean decided
	// prefix, marked Partial.
	ErrCancelled = core.ErrCancelled
	// ErrEnginePanic is wrapped when a panic inside a certification
	// worker or serial engine section was captured and converted into an
	// error instead of crashing the process.
	ErrEnginePanic = core.ErrEnginePanic
	// ErrCorruptState is wrapped when a guarded bound row fails its
	// checksum (see MetricParallelOptions.GuardRows) and when a snapshot
	// or write-ahead-log record fails its digest or structural checks
	// during Load or OpenDurable recovery.
	ErrCorruptState = core.ErrCorruptState
	// ErrUnsupportedVersion is wrapped when a snapshot declares a format
	// version this build does not know; the file is well-formed, just
	// newer — nothing is truncated or repaired.
	ErrUnsupportedVersion = persist.ErrUnsupportedVersion
	// ErrNoState is wrapped when OpenDurable finds no usable snapshot in
	// the directory; with a build function supplied the durable spanner
	// is created fresh instead of surfacing it.
	ErrNoState = persist.ErrNoState
	// ErrLocked is wrapped when OpenDurable finds the state directory
	// held by another live process; two writers interleaving WAL appends
	// would corrupt recovery, so the second opener fails fast. A lock
	// left by a crashed holder is detected as stale and broken.
	ErrLocked = persist.ErrLocked
)

// CandidateSource re-exports the streaming candidate-supply interface: a
// source of spanner candidates in greedy scan order, pulled batch by
// batch so memory scales with the active weight bucket instead of the
// full candidate set.
type CandidateSource = core.CandidateSource

// ParallelOptions and MetricParallelOptions both re-export core.Options,
// the one options struct of the batched engines: tuning knobs (workers,
// batch width, candidate supply, bucket cap, hubs, stats) plus the
// robustness controls — Ctx cancels the build at the next check point
// (typed ErrCancelled, prefix Result), Budget bounds its resources with
// graceful degradation, and Inject is the fault-injection surface the
// chaos harness drives. GuardRows, honored by the metric engine only,
// arms per-row checksums over the cached bound rows so a corrupted entry
// surfaces as ErrCorruptState instead of silently certifying a wrong
// skip. The two names are interchangeable.
type (
	ParallelOptions       = core.Options
	MetricParallelOptions = core.Options
)

// ParallelStats and MetricParallelStats both re-export core.Stats, the
// one counter struct of the batched engines: certification outcomes, the
// sparse bound-row and streamed-supply memory figures (metric rows stay 0
// on graphs), the hub-label fast path's hit counters, and the budget
// ladder's degradation log.
type (
	ParallelStats       = core.Stats
	MetricParallelStats = core.Stats
)

// IncrementalPolicy re-exports the maintained spanner's batching policy:
// the zero value replays every insertion immediately, CoalesceUntilQuery
// defers replays until Result/Flush, and MinBatch defers them until a
// minimum number of elements is pending. Install with
// Incremental.SetPolicy.
type IncrementalPolicy = core.IncrementalPolicy

// Metric re-exports the finite metric-space interface.
type Metric = metric.Metric

// ApproxOptions re-exports the approximate-greedy configuration.
type ApproxOptions = approx.Options

// ApproxResult re-exports the approximate-greedy output.
type ApproxResult = approx.Result

// StretchReport re-exports the stretch audit report.
type StretchReport = verify.StretchReport

// NewGraph returns an empty weighted graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewEuclidean builds a Euclidean metric over the given points (same
// dimension everywhere). The metric keeps the caller's slices: do not
// modify pts, or any point in it, afterwards.
func NewEuclidean(pts [][]float64) (Metric, error) { return metric.NewEuclidean(pts) }

// NewMetricFromMatrix wraps an explicit symmetric distance matrix. The
// metric keeps the caller's slices: do not modify d, or any row of it,
// afterwards.
func NewMetricFromMatrix(d [][]float64) (Metric, error) { return metric.NewMatrix(d) }

// MetricFromGraph returns the shortest-path metric induced by a connected
// weighted graph (the M_G of the paper's Section 2).
func MetricFromGraph(g *Graph) (Metric, error) { return metric.FromGraph(g) }

// Greedy computes the greedy t-spanner of a weighted graph (Algorithm 1 of
// the paper): edges are examined in non-decreasing weight order, and (u, v)
// is kept iff the current spanner distance exceeds t*w(u, v). It runs the
// batched engine of GreedyParallelOpts with default options: GOMAXPROCS
// workers certifying skips against a frozen snapshot of the growing
// spanner with bounded bidirectional Dijkstra, and the uncertified edges
// re-examined serially in exact greedy order, so the output — edge
// sequence, weight, and counters — is that of the sequential scan.
func Greedy(g *Graph, t float64) (*Result, error) {
	return core.GreedyGraphParallelOpts(g, t, core.Options{})
}

// GreedyParallelOpts is Greedy with explicit engine controls: the worker
// count (0 selects GOMAXPROCS), batching, hubs, stats, cancellation, and
// budget. By default the engine streams candidates from a weight-bucketed
// supply (NewGraphCandidateSource) instead of sorting a full copy of the
// edge list; set Materialize to force the classic sorted-copy supply, or
// Source to plug in a custom one. Output is bit-identical to Greedy for
// any supply that emits the edges in greedy scan order.
func GreedyParallelOpts(g *Graph, t float64, opts ParallelOptions) (*Result, error) {
	return core.GreedyGraphParallelOpts(g, t, opts)
}

// GreedyMetric computes the greedy t-spanner of a finite metric space by
// examining all pairwise distances ("path-greedy"). It runs the batched
// cached-bound engine of GreedyMetricParallelOpts with default options:
// cached distance bounds in the spirit of Bose et al. [BCF+10] certify
// most skips with no search, the remaining sparse bound rows are refreshed
// concurrently against a frozen snapshot of the growing spanner, and only
// the uncertified pairs are re-examined serially in exact greedy order,
// so the output is the deterministic spanner of the sequential scan.
func GreedyMetric(m Metric, t float64) (*Result, error) {
	return core.GreedyMetricFastParallelOpts(m, t, core.Options{})
}

// GreedyMetricParallelOpts is GreedyMetric with explicit engine controls.
// By default the engine streams the n(n-1)/2 candidate pairs from a
// weight-bucketed supply (grid-bucketed on Euclidean metrics, so a bucket
// is produced without touching farther pairs at all) and keeps distance
// bounds in sparse rows allocated on first refresh — memory scales with
// the spanner's working set, not with n^2. Set Workers to fix the worker
// count, Materialize to force the classic materialize-then-sort supply,
// BucketPairs to cap the streamed supply's resident bucket, or Source to
// plug in a custom supply. Output is bit-identical in every mode.
func GreedyMetricParallelOpts(m Metric, t float64, opts MetricParallelOptions) (*Result, error) {
	return core.GreedyMetricFastParallelOpts(m, t, opts)
}

// NewMetricCandidateSource returns the streamed weight-bucketed candidate
// supply over all interpoint pairs of m in greedy scan order; bucketPairs
// <= 0 selects the default cap. Useful for driving GreedyMetricParallelOpts
// with a shared or instrumented supply.
func NewMetricCandidateSource(m Metric, bucketPairs int) CandidateSource {
	return core.NewMetricSource(m, bucketPairs)
}

// NewGraphCandidateSource returns the streamed weight-bucketed supply over
// g's edge list in greedy scan order; bucketPairs <= 0 selects the default
// cap.
func NewGraphCandidateSource(g *Graph, bucketPairs int) CandidateSource {
	return core.NewGraphEdgeSource(g, bucketPairs)
}

// Incremental re-exports the fully dynamic maintained greedy spanner:
// after the initial build it accepts point insertions and deletions
// (metric mode, Insert and Delete) or edge insertions and deletions
// (graph mode, InsertEdges and DeleteEdges), and after every batch its
// Result is bit-identical to a from-scratch greedy build on the
// surviving input. An insertion resumes the greedy scan at the first
// position a new candidate pair occupies: the accepted prefix below it
// is preserved verbatim, whole candidate buckets below it are skipped by
// count alone, and cached bound rows untouched since that prefix keep
// certifying skips — sound because bounds proven on a preserved prefix
// only overestimate the replay's spanner distances. A deletion cuts at
// the earliest accepted edge touching a removed element — every decision
// before it depended only on surviving accepted edges — and rebases the
// cached bound rows and hub arrays backward onto digest-verified
// periodic checkpoints instead of recomputing them, so the tail replay
// starts from restored state. Deleted points become internal tombstones
// (never renumbered, which would reorder weight ties); Result densely
// renumbers the survivors in a tie-preserving order.
type Incremental = core.IncrementalSpanner

// NewIncremental builds the greedy t-spanner of m and returns it as a
// maintained spanner ready for point insertions: call Insert with a
// metric that extends m (same leading points and distances, new points
// appended) and Result for the current spanner. workers selects the
// replay engine's concurrency (0 = GOMAXPROCS).
func NewIncremental(m Metric, t float64, workers int) (*Incremental, error) {
	return core.NewIncrementalMetric(m, t, core.Options{Workers: workers})
}

// NewIncrementalOpts is NewIncremental with explicit engine controls
// (batch width, bucket cap, stats). Source and Materialize are rejected:
// a maintained spanner owns its candidate supply.
func NewIncrementalOpts(m Metric, t float64, opts MetricParallelOptions) (*Incremental, error) {
	return core.NewIncrementalMetric(m, t, opts)
}

// NewIncrementalGraph builds the greedy t-spanner of g (cloned; later
// mutations of g are not observed) and returns it as a maintained spanner
// ready for edge insertions via InsertEdges.
func NewIncrementalGraph(g *Graph, t float64, workers int) (*Incremental, error) {
	return core.NewIncrementalGraph(g, t, core.Options{Workers: workers})
}

// NewIncrementalGraphOpts is NewIncrementalGraph with explicit engine
// controls; Source and Materialize are rejected.
func NewIncrementalGraphOpts(g *Graph, t float64, opts ParallelOptions) (*Incremental, error) {
	return core.NewIncrementalGraph(g, t, opts)
}

// Save writes the complete state of a maintained spanner to path as a
// versioned binary snapshot: the accepted edge list, the tombstone id
// space, the pair-count histogram, the cached bound rows with their
// proof epochs, the hub arrays, and the batching policy — everything a
// Load needs to resume dynamic operation without re-running the greedy
// scan. The write is atomic (temp file + fsync + rename + directory
// fsync) and every section carries its own digest, so a torn or
// corrupted file fails Load with ErrCorruptState instead of producing a
// wrong spanner. The spanner's pending batch is flushed first.
func Save(s *Incremental, path string) error {
	st, err := s.ExportState()
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, persist.EncodeSnapshot(st, 0), 0o644)
}

// Load reads a snapshot written by Save and reconstructs the maintained
// spanner: same result, same counters, same cached certification state,
// ready for further insertions and deletions. workers selects the replay
// engine's concurrency (0 = GOMAXPROCS). A snapshot from a newer format
// version fails with ErrUnsupportedVersion; any digest or structural
// failure with ErrCorruptState.
func Load(path string, workers int) (*Incremental, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, _, err := persist.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return core.ImportIncremental(st,
		core.Options{Workers: workers},
		core.Options{Workers: workers})
}

// Durable re-exports the crash-safe maintained spanner: an Incremental
// wrapped in a persistence directory holding a versioned snapshot plus a
// write-ahead log of dynamic operations. Every mutation (Insert, Delete,
// InsertEdges, DeleteEdges, SetPolicy, Flush) is validated, appended to
// the log, and fsynced before it is applied, so after a crash at any
// instant OpenDurable recovers a state bit-identical to the uninterrupted
// run: the newest decodable snapshot is imported and the log tail is
// replayed through the same application path the live operations used,
// coalesced into at most one engine replay from the earliest scan
// position any logged operation disturbed. Checkpoint rotates in a fresh
// snapshot and truncates the log.
type Durable = persist.Durable

// DurableOptions re-exports the durable spanner's configuration: engine
// options for the metric and graph replay paths, NoSync to trade crash
// safety for speed in tests, and the crash-injection hooks the chaos
// suite drives.
type DurableOptions = persist.Options

// OpenDurable opens the durable spanner persisted in dir, recovering
// from whatever state a crash left behind: the newest valid snapshot is
// loaded and the write-ahead-log tail replayed, with any torn trailing
// record truncated at the exact corruption point. Recovery costs the
// snapshot import plus at most one engine replay, however many
// operations the log holds; a failure of that replay is returned
// wrapping its typed cause (ErrCancelled, ErrEnginePanic,
// ErrCorruptState). If the directory holds
// no usable state (fresh directory, or a crash before the first snapshot
// completed) and build is non-nil, the spanner is built from scratch via
// build and persisted; with build nil the ErrNoState is surfaced.
// workers selects the replay engine's concurrency (0 = GOMAXPROCS).
// The directory is held under an exclusive lock until Close; a second
// OpenDurable on a dir a live process already holds returns ErrLocked.
func OpenDurable(dir string, workers int, build func() (*Incremental, error)) (*Durable, error) {
	o := persist.Options{
		Metric: core.Options{Workers: workers},
		Graph:  core.Options{Workers: workers},
	}
	d, err := persist.Open(dir, o)
	if err == nil {
		return d, nil
	}
	if !errors.Is(err, persist.ErrNoState) || build == nil {
		return nil, err
	}
	inc, err := build()
	if err != nil {
		return nil, err
	}
	return persist.Create(dir, inc, o)
}

// ApproxGreedy runs the approximate-greedy (1+eps)-spanner algorithm for
// doubling metrics (Section 5 of the paper; Das–Narasimhan / Gudmundsson et
// al. architecture): a bounded-degree base spanner, a light-edge shortcut,
// and a bucketed greedy simulation over a cluster graph.
func ApproxGreedy(m Metric, opts ApproxOptions) (*ApproxResult, error) { return approx.Greedy(m, opts) }

// VerifySpanner checks that h is a t-spanner of g (over the edges of g,
// which implies the bound for all pairs) and reports the worst stretch.
func VerifySpanner(h, g *Graph, t float64) (StretchReport, error) {
	return verify.Spanner(h, g, t, 1e-9)
}

// VerifyMetricSpanner checks that h spans the metric m with stretch t over
// all point pairs.
func VerifyMetricSpanner(h *Graph, m Metric, t float64) (StretchReport, error) {
	return verify.MetricSpanner(h, m, t, 1e-9)
}

// VerifySelfSpanner checks Lemma 3 on a purported greedy output: every edge
// must be irreplaceable. It returns the violating edges (empty for genuine
// greedy spanners).
func VerifySelfSpanner(h *Graph, t float64) []core.SelfSpannerViolation {
	return core.VerifySelfSpanner(h, t)
}

// Lightness returns weight(h) / weight(MST(g)), the paper's Psi(H).
func Lightness(h, g *Graph) (float64, error) { return verify.Lightness(h, g) }

// MetricLightness returns weight(h) / weight(MST of the metric's complete
// distance graph).
func MetricLightness(h *Graph, m Metric) (float64, error) { return verify.MetricLightness(h, m) }

// BaswanaSen builds the randomized (2k-1)-spanner of Baswana and Sen, one
// of the baseline constructions used in the comparison experiments.
func BaswanaSen(rng *rand.Rand, g *Graph, k int) (*Graph, error) {
	return baswanaSen(rng, g, k)
}

// FaultTolerantGreedy computes an f-vertex-fault-tolerant t-spanner of a
// metric (Czumaj–Zhao style greedy; the [Sol14] direction the paper cites).
// Supported for f in {0, 1, 2}; see internal/core for the cost model.
func FaultTolerantGreedy(m Metric, t float64, f int) (*Result, error) {
	return core.FaultTolerantGreedyOpts(m, t, f, core.Options{})
}

// FaultTolerantGreedyOpts is FaultTolerantGreedy with explicit engine
// controls; they mean what they mean for GreedyMetricParallelOpts, except
// that Workers is ignored (the fault-set sweep runs serially). With
// Hubs > 0, per-fault-set probes that some hub label proves survivable
// skip their masked search, counted in Stats.HubQueries and HubSkips.
// Output is bit-identical for every hub count.
func FaultTolerantGreedyOpts(m Metric, t float64, f int, opts MetricParallelOptions) (*Result, error) {
	return core.FaultTolerantGreedyOpts(m, t, f, opts)
}

// DefaultHubs suggests a hub count for an n-element instance; pass it to
// the Hubs option when you want the certification fast path without
// hand-tuning k.
func DefaultHubs(n int) int { return core.DefaultHubs(n) }

// VerifyFaultTolerance exhaustively audits that h is an f-fault-tolerant
// t-spanner of m (f in {0, 1, 2}).
func VerifyFaultTolerance(h *Graph, m Metric, t float64, f int) error {
	return core.VerifyFaultTolerance(h, m, t, f, 1e-9)
}
