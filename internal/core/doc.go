// Package core implements the paper's central object: the greedy spanner of
// Althöfer et al. (Algorithm 1 in Filtser–Solomon, "The Greedy Spanner is
// Existentially Optimal", PODC 2016), for both weighted graphs and finite
// metric spaces, together with the verifiers that realize the paper's
// optimality arguments — the Lemma 3 self-spanner property, the Lemma 8
// size-injection argument, and the MST-containment Observation 2.
//
// # The greedy algorithm
//
// The greedy algorithm examines candidate edges in non-decreasing weight
// order (ties broken by endpoint ids, so the scan is deterministic) and
// keeps edge (u, v) iff the current spanner distance delta_H(u, v) exceeds
// t * w(u, v). On graphs the candidates are the input's edges; on metrics
// they are all n(n-1)/2 interpoint distances ("path-greedy").
//
// # One batched-certification driver and the frozen-snapshot invariant
//
// GreedyGraphParallelOpts, GreedyMetricFastParallelOpts,
// FaultTolerantGreedyOpts, and every build and replay of
// IncrementalSpanner run one scan driver (scan.run), configured by one
// Options struct and reporting one Stats struct; only the serial
// references GreedyGraph and GreedyMetricFastSerial, which the
// equivalence tests and the sequential baselines compare against, keep
// their own loops. The driver rests
// on one invariant: spanner distances only shrink as the greedy scan adds
// edges, so any skip certified against a frozen snapshot H0 of the
// growing spanner stays correct for every later spanner H ⊇ H0.
// Concretely, if delta_{H0}(u, v) <= t * w(u, v) then the sequential
// algorithm — which would test (u, v) against some H ⊇ H0 — would also
// skip it, because delta_H <= delta_{H0}. Certification is therefore safe
// to run concurrently against an immutable snapshot, out of greedy order;
// only the pairs the snapshot fails to certify are replayed serially, in
// exact greedy order, against the live spanner. Every accept/reject
// decision thus matches the sequential scan, and the output — edge
// sequence, weight, examined count — is deterministic and bit-identical
// regardless of worker count, batch width, or goroutine scheduling.
// (The frozen-snapshot discipline — workers write only owner-indexed
// slots, never captured snapshot state, also inside the certifier methods
// a worker calls and in goroutines started by name, such as the supply's
// producer — is machine-checked by the frozensnap analyzer;
// map-order and wall-clock nondeterminism in these paths by mapdet and
// detpure. See README "Static analysis".)
//
// The driver owns everything the modes share: the batch loop, the
// adaptive width (it grows while snapshots certify almost everything and
// shrinks when the snapshot goes stale too fast, capped by
// Budget.MaxBatchWidth), the worker fan-out with per-worker error slots,
// panic capture, join, and post-join cancellation check, the in-scan
// budget ladder, the accept bookkeeping, the work counts, and the
// OnBatch/OnCertify hook points. Each worker searches with its own
// graph.Searcher, and search state a worker owns never shares a cache
// line with another worker's: every push, pop and count writes it, and a
// shared line would stall both cores on each write. The searchers count
// the vertices they label, and the driver folds the counts into
// Stats.RefreshTouched after each batch's join, so workers share no
// counter. Each batch runs a serial pre-pass over the cheap certificates,
// a snapshot pass fanned out over the workers, and a serial pass over the
// survivors. At one worker the same loop skips the pre-pass and the
// snapshot pass and settles each candidate inline, so a single-worker
// scan walks the same budget ladder at the same batch boundaries.
//
// The modes differ only in the certifier they plug in:
//
//   - The graph certifier answers each query, after the hub-label check,
//     with the bounded bidirectional decision query (two balls of radius
//     ~t*w/2 instead of one of radius t*w, stopped as soon as a
//     relaxation labels a vertex from both sides within t*w, the first
//     admissible walk). While nothing was accepted since the snapshot
//     pass, a survivor's snapshot verdict stands, so the first survivor
//     of each batch is kept with no second search. Stats.RefreshTouched
//     counts the vertices these searches labelled.
//   - The metric certifier maintains the cached distance-bound rows of
//     GreedyMetricFastSerial (the Bose et al. [BCF+10] trick): cached
//     upper bounds certify most skips with no search at all, then the hub
//     labels; the rows that still need recomputing are refreshed
//     concurrently — each row is owned by exactly one worker, so a batch's
//     refreshes need no locking — and survivors decide on a live
//     refresh. A refreshed row computed on H0 is again a valid row of
//     upper bounds for every later H, by the same monotonicity.
//   - The fault-tolerant certifier decides each candidate with one sweep
//     over every fault set of at most f vertices — the hub labels'
//     fault-avoiding certificate, then a masked bounded search on the
//     live spanner. HubOracle.CertifyAvoiding syncs the oracle, so the
//     sweep cannot run against a snapshot in workers; the engine runs at
//     one worker and keeps the driver's batches, cancellation, budget
//     ladder, hooks, and accounting.
//
// # The streaming candidate supply and the sparse bound rows
//
// Both batched engines pull their candidates from one streamed supply
// instead of a materialized slice. The classic pipeline builds every
// candidate up front — all n(n-1)/2 interpoint pairs for metrics, a full
// copy of the edge list for graphs — and sorts it globally, so an
// n-point Euclidean instance pays Θ(n²) memory before the first greedy
// decision. The streamed supply exploits that the greedy scan only ever
// consumes candidates in non-decreasing weight order: one counting pass
// partitions the weights into geometric buckets [2^(e-1), 2^e), and only
// the active bucket is materialized and sorted (buckets above a
// configurable pair cap are first subdivided into narrower weight
// ranges), so supply memory is O(bucket cap) and sorting costs a few
// linear radix passes per bucket instead of one global O(N log N).
// Adjacent small buckets merge into one collection pass, up to an eighth
// of the candidate set (at least minMergePairs pairs), so no bucket
// gathers the whole set and the scan can certify the first bucket while
// the next is filled. On Euclidean metrics the bucket is produced by the
// grid enumerator of internal/geom: one dense grid over a flat
// coordinate array per range, with cells about 1/12 of the range's upper
// edge in the plane, so pairs beyond the range and most pairs well below
// it are never evaluated; its counting pass tallies the exponent
// histogram on the same flat kernel. Weights come from geom.Dist, the
// routine metric.Euclidean.Dist calls, so the streamed order is exactly
// the materialized order (ties included) and engine output is
// bit-identical for every bucket cap. Stats.SupplyEvaluated counts the
// weights the supply computed or read, as Stats.SupplyPasses counts its
// passes; both travel with each bucket, since the core reads no clock.
//
// A bucket is held as 16-byte records (weight, u, v as int32) and sorted
// in place by an MSD radix sort on the 128-bit key (weight bits with -0
// folded onto +0, then u, then v), which is exactly graph.EdgeLess order
// on the non-negative weights a bucket holds; NextBatch converts only the
// requested batch into edges. While scan.run drains a streamed source it
// runs one producer goroutine beside the scan, at every worker count:
// the producer owns the supply state outright (handed over by parameter,
// never shared), enumerates, sorts, and cut-filters bucket k+1 while the
// scan certifies bucket k, and hands each bucket over by value through a
// channel; run joins it on every exit path. The producer is not a
// certifier — it never reads the spanner — so it adds no decision and
// cannot change output. Its two buffers are carved from one allocation
// and recycled for every bucket, each capped at three quarters of the
// resolved BucketPairs, so the bucket being certified and the bucket
// being filled together hold at most the 24*BucketPairs bytes one bucket
// of edges would (a single-bucket supply allocates only one). The public
// NewMetricSource and NewGraphEdgeSource, drained directly, stay
// synchronous and start no goroutine.
//
// The metric engine's dense n x n bound matrix is likewise replaced by a
// sparse row store: rows materialize on first refresh (never-refreshed
// vertices cost nothing) and hold bfloat16 upper bounds rounded toward
// +Inf. The lossy cache is sound because a rounded-up upper bound is
// still an upper bound, and it cannot change output because every pair
// the cache fails to certify is decided on an exact float64 Dijkstra
// distance — exactly the serial reference's decision procedure. The
// serial reference (GreedyMetricFastSerial) intentionally keeps the
// materialized pair list and dense float64 matrix as the
// memory-comparison baseline and ground truth.
//
// # The hub-label certification fast path
//
// With the Hubs option both engines consult a HubOracle before paying any
// search: k hub vertices (degree-selected on graphs, ball-growth-sampled
// on metrics) carry maintained distance arrays over the growing spanner,
// and the label bound min_h d(u,h)+d(h,v) certifies a skip in O(k). The
// soundness argument is one line: the label bound is the length of a real
// u–h–v walk in the spanner, so it dominates delta_H(u, v) by the
// triangle inequality — a hub-certified skip is a skip the exact engine
// would also take, and output stays bit-identical for every hub count
// (hubs=0 reproduces the pre-hub engines verbatim). Arrays are maintained
// lazily: an accepted edge only shrinks distances, so each hub repairs by
// re-relaxing just the dirty radius the edge improves
// (graph.Searcher.RelaxNewEdge) instead of re-running Dijkstra, and
// between repairs the arrays are distances on a sub-spanner — still valid
// upper bounds. On the metric path the oracle additionally bounds row
// refreshes to a factor of the query radius (sound: unreached entries
// stay +Inf, a trivial upper bound, and the pair decision reads an exact
// settled distance or a beyond-limit verdict either way), and a refresh
// folds only the vertices it reached. A maintained spanner also writes
// each bound the oracle certifies into the pair's own row entry, for its
// replays and exports to read; that entry serves no other pair, so a
// one-shot build, where the pair was just decided, skips the write.
// Across incremental insertions the arrays rebase like bound rows: synced
// to a preserved prefix they survive and repair forward; synced past the
// cut they are refreshed in place.
//
// # Incremental maintenance and the insertion-soundness invariant
//
// IncrementalSpanner maintains a greedy spanner under point insertions
// (metrics) and edge insertions (graphs). The engine owns its input by
// stable id, in a kind fixed at construction or import: a Euclidean
// input's coordinates, which InsertPoints extends, or any other metric's
// rows of distances to the lower ids, which InsertRows extends with each
// new point's distances to the survivors and the new points before it.
// Insert(union) hands the points beyond LiveN() to one of the two. A
// durable wrapper therefore only logs in front of the engine: the two
// forms are its log's insert payloads. An insertion splices new
// candidates into the fixed greedy scan order, so everything strictly
// before the first spliced position is undisturbed: the union scan sees
// the identical candidate prefix, repeats the identical decisions, and
// accepts the identical edge prefix — which the engine keeps verbatim
// and replays only the tail from a cut-resumed candidate source.
//
// Cached bound rows survive insertions by the same monotonicity that
// powers the frozen-snapshot certification: every row is stamped with
// the accepted-edge prefix its bounds were proven on, and a row proven
// on a prefix the replay preserves is proven on a subgraph of every
// partial spanner the replay will hold — adding edges only shrinks
// distances, so its entries can only overestimate, never undercut, and
// each skip they certify is exactly the skip a fresh computation would
// certify. Rows proven on longer (discarded) prefixes are dropped.
// The maintained result after every insertion batch is therefore
// bit-identical to a from-scratch greedy build on the union, counters
// included.
//
// # Deletions and the backward-rebase soundness invariant
//
// Delete (points, metric mode) and DeleteEdges (graph mode) extend the
// maintained spanner to a fully dynamic one. The soundness argument
// mirrors insertion, pointed backward: every greedy decision depends
// only on the accepted edges that precede it, so the earliest accepted
// edge with a deleted endpoint is the first decision a deletion can
// disturb. Everything strictly before that cut is a decision the
// surviving input's scan repeats verbatim — the candidate stream differs
// only in pairs it skips as tombstoned, and skipped candidates never
// influenced a decision — so the engine keeps the accepted prefix,
// rebases the cached state backward onto it, and replays only the tail.
// A deletion that only touches rejected candidates cuts at the sentinel
// past the last candidate: the replay is pure accounting and the edge
// set is untouched.
//
// The backward rebase keeps what the prefix proved. Bound rows and hub
// arrays are stamped with the accepted-edge prefix they were proven on,
// and a stamp at or below the cut survives a deletion exactly as it
// survives an insertion: the kept prefix holds no deleted endpoint, so
// the insertion-soundness argument applies unchanged. State stamped
// above the cut is reset — a row to all-+Inf, the hub arrays to stale,
// refreshed whole at their next sync — and the tail replay refreshes a
// reset row when a pair first needs it. No older copies are kept to
// restore instead: periodic snapshots saved at most 4% of an exact
// replay's parallel refreshes, and none on single-point Euclidean or
// matrix replays, while holding over half of a maintained n=2000
// engine's heap. A guarded row that fails its checksum at the rebase is
// dropped, never carried into the replay.
// Internally deleted points become tombstones in a stable-id space (ids
// are never renumbered, which would reorder weight ties); the public
// Result densely renumbers survivors in stable order, which preserves
// tie order, the float-summed weight, and the examined-candidate
// counter. The maintained result after every deletion batch is
// therefore bit-identical to a from-scratch greedy build on the
// survivors, counters included.
//
// # Euclidean replays and the local-change invariant
//
// On a Euclidean metric (the point kind spannerd and its write-ahead log
// produce) a replay re-decides only the pairs an update can change. The
// greedy rule decides each pair from the spanner prefix before it, and
// every spanner path is at least as long as the distance it spans, so a
// pair's decision can only move if an edge the replay added or dropped
// so far lies in its t-ellipse: min over orientations of
// d(a,x) + w(x,y) + d(y,b) <= t·w(a,b). The replay certifier walks the
// resumed supply beside a merge pointer into the previous run's accepted
// tail and copies every old keep no added edge can shorten and every old
// skip no dropped edge can lengthen. A skip a dropped edge might
// lengthen still stands when (U + (t−1)·W_D)·(1+1e-9) <= t·w, with U an
// old-run bound-row entry proven no later than the pair and W_D the
// dropped weight so far: each dropped keep has a replacement within t
// times its weight earlier in the new run, and a path through a deleted
// point reroutes through the pair of its two path neighbours, which that
// strict test places before (a, b). Everything else — new points' pairs,
// possibly shortened keeps, and the slack residue — is decided exactly,
// serially, so the output stays bit-identical to a from-scratch build.
// Old-run rows proven past the cut stay aside as read-only evidence for
// U; whichever of them the replay did not refresh are rebased to the cut
// when it ends, on every exit path. The exact replay remains the
// reference and runs instead for graphs and matrix metrics, which promise
// no triangle inequality; for batches of more than 48 changed points,
// where it is measured to be as fast; and for points spread so far that
// squared coordinate differences could overflow. Pairs whose limit t·w is
// below 1e-100, where subnormal squared differences could break the
// triangle inequality by more than the margin, are decided exactly too.
//
// # Cancellation, budgets, and the fault-containment invariant
//
// Every engine accepts an optional context and Budget (the Ctx and
// Budget option fields). Cancellation is observed at batch boundaries
// and, inside a batch, after each certification search but before its
// decision commits — a truncated search can report "not within reach"
// spuriously, so no decision derived from one is ever recorded (the
// ctxcommit analyzer machine-checks this check-before-commit shape, also
// when the search hides behind a certifier method called through its
// interface). A
// cancelled or deadline-expired build returns the exact decided prefix
// (Result.Partial set) with ErrCancelled; worker pools are always
// joined before returning. Budget pressure walks a degradation ladder
// (narrower supply buckets, smaller batches, hub oracle dropped, bound
// rows dropped) in which every rung is output-invariant — each merely
// disables a fast path whose soundness argument never affected
// decisions — and is recorded in the stats' Degradations log. The
// in-scan rungs run at the driver's batch boundaries for every worker
// count, so a workers=1 build honors Budget.MaxBytes after its scan
// starts too (TestBudgetDegradationLadder walks the ladder at workers 1
// and 4). Worker panics are converted to ErrEnginePanic; checksum-guarded
// bound rows (GuardRows) surface bit flips as ErrCorruptState, verified
// before every fold, overwrite, and cache-certified skip, and incremental
// rebases drop rather than re-digest damaged rows.
//
// The invariant the internal/chaos property suite enforces across all
// four engines: any injected fault — worker panic, stalled
// certification, cancellation at a randomized scan position, or a
// checksum-bypassing bit flip — yields either output bit-identical to
// the serial reference or a clean typed error with the exact decided
// prefix; never silent divergence, never a leaked goroutine.
//
// # Durable state export
//
// ExportState flushes a maintained spanner's pending batch and captures
// its complete dynamic state — the surviving input, the accepted edge
// sequence in the stable tombstone id space, the pair-count histogram,
// the sparse bound rows with their proof epochs, the hub arrays, and the
// batching policy — as a SpannerState; ImportIncremental reconstructs an
// equivalent IncrementalSpanner from one, keeping the state's bound and
// hub rows as its own rather than copying them. The round trip is exact:
// the import re-registers the cached rows under the same proof prefixes
// the export recorded, so the reconstructed spanner certifies, replays, and
// answers Result bit-identically to the original (ResultDigest is the
// 64-bit fingerprint tests compare). internal/persist builds the on-disk
// layer on top of this pair: versioned digest-guarded snapshots of a
// SpannerState plus a write-ahead log of dynamic operations, with
// crash-recovery equivalence enforced by the internal/chaos Kill suite.
//
// # Machine-checked invariants
//
// The invariants above are enforced statically by the spannerlint suite
// (internal/analysis, driver cmd/spannerlint, run by CI and
// scripts/lint.sh): mapdet forbids unordered map iteration in this
// package and internal/graph; ctxcommit enforces the
// check-before-commit rule on bounded searches and context threading on
// engine entry points; frozensnap freezes captured state inside
// certification worker closures; detpure keeps wall-clock reads,
// math/rand, and map-ordered float accumulation out of decision paths;
// errtyped keeps the exported error surface dispatchable with
// errors.Is; and fsyncrename (internal/persist's scope) enforces the
// durability disciplines. Deliberate exemptions carry
// //spannerlint:ignore annotations whose reasons are part of this
// package's soundness documentation.
package core
