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
// GreedyGraphParallel, GreedyMetricFastParallel, and every build and
// replay of IncrementalSpanner run one scan driver (scan.run), configured
// by one Options struct and reporting one Stats struct. The driver rests
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
// a worker calls — is machine-checked by the frozensnap analyzer;
// map-order and wall-clock nondeterminism in these paths by mapdet and
// detpure. See README "Static analysis".)
//
// The driver owns everything the modes share: the batch loop, the
// adaptive width (it grows while snapshots certify almost everything and
// shrinks when the snapshot goes stale too fast, capped by
// Budget.MaxBatchWidth), the worker fan-out with per-worker error slots,
// panic capture, join, and post-join cancellation check, the in-scan
// budget ladder, the accept bookkeeping, and the OnBatch/OnCertify hook
// points. Each batch runs a serial pre-pass over the cheap certificates,
// a snapshot pass fanned out over the workers, and a serial pass over the
// survivors. At one worker the same loop skips the pre-pass and the
// snapshot pass and settles each candidate inline, so a single-worker
// scan walks the same budget ladder at the same batch boundaries.
//
// The two modes differ only in the certifier they plug in:
//
//   - The graph certifier answers each query with bounded bidirectional
//     Dijkstra (two balls of radius ~t*w/2 instead of one of radius t*w)
//     after the hub-label check.
//   - The metric certifier maintains the cached distance-bound rows of
//     GreedyMetricFastSerial (the Bose et al. [BCF+10] trick): cached
//     upper bounds certify most skips with no search at all, then the hub
//     labels; the rows that still need recomputing are refreshed
//     concurrently — each row is owned by exactly one worker, so a batch's
//     refreshes need no locking — and survivors decide on a live
//     refresh. A refreshed row computed on H0 is again a valid row of
//     upper bounds for every later H, by the same monotonicity.
//
// # The streaming candidate supply and the sparse bound rows
//
// Both batched engines pull their candidates from a CandidateSource
// instead of a materialized slice. The classic pipeline builds every
// candidate up front — all n(n-1)/2 interpoint pairs for metrics, a full
// copy of the edge list for graphs — and sorts it globally, so an
// n-point Euclidean instance pays Θ(n²) memory before the first greedy
// decision. The streamed sources exploit that the greedy scan only ever
// consumes candidates in non-decreasing weight order: one counting pass
// partitions the weights into geometric buckets [2^(e-1), 2^e), and only
// the active bucket is materialized and sorted (buckets above a
// configurable pair cap are first subdivided into narrower weight
// ranges), so supply memory is O(bucket cap) and sorting is O(B log B)
// per bucket instead of one global O(N log N). On Euclidean metrics the
// bucket is produced by the grid enumerator of internal/geom, which
// inspects only grid cells within the bucket's distance — pairs beyond
// the active weight scale are never even evaluated. The streamed order is
// exactly the materialized order (ties included), so engine output is
// bit-identical for any supply.
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
// settled distance or a beyond-limit verdict either way) and pre-seeds
// the sparse bound rows with the bounds it certifies, so the cache layer
// and the oracle compound. Across incremental insertions the arrays
// rebase like bound rows: synced to a preserved prefix they survive and
// repair forward; synced past the cut they are refreshed in place.
//
// # Incremental maintenance and the insertion-soundness invariant
//
// IncrementalSpanner maintains a greedy spanner under point insertions
// (metrics) and edge insertions (graphs). An insertion splices new
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
// The backward rebase is what makes this cheap. Bound rows and hub
// arrays are stamped with the accepted-edge prefix they were proven on;
// a forward rebase (insertion) keeps any stamp at or below the cut, but
// a deletion invalidates stamps above it, and recomputing them from
// scratch would cost a full replay. Instead both stores keep periodic
// checkpoints — digest-verified snapshots of row and hub-array state at
// known epochs — and restore the newest checkpoint at or below the cut.
// A restored row is a row the engine actually held at that prefix, so
// the insertion-soundness argument applies unchanged; a checkpoint whose
// digest fails verification is dropped, never laundered into the replay.
// Internally deleted points become tombstones in a stable-id space (ids
// are never renumbered, which would reorder weight ties); the public
// Result densely renumbers survivors in stable order, which preserves
// tie order, the float-summed weight, and the examined-candidate
// counter. The maintained result after every deletion batch is
// therefore bit-identical to a from-scratch greedy build on the
// survivors, counters included.
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
// (materialized supply → streamed, narrower buckets, smaller batches,
// hub oracle dropped, bound rows dropped) in which every rung is
// output-invariant — each merely disables a fast path whose soundness
// argument never affected decisions — and is recorded in the stats'
// Degradations log. The in-scan rungs run at the driver's batch
// boundaries for every worker count, so a workers=1 build honors
// Budget.MaxBytes after its scan starts too (TestBudgetDegradationLadder
// walks the ladder at workers 1 and 4). Worker panics are converted to ErrEnginePanic;
// checksum-guarded bound rows (GuardRows) surface bit flips as
// ErrCorruptState, verified before every fold, overwrite, and
// cache-certified skip, and incremental rebases drop rather than
// re-digest damaged rows.
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
// equivalent IncrementalSpanner from one. The round trip is exact: the
// import re-registers the cached rows under the same proof prefixes the
// export recorded, so the reconstructed spanner certifies, replays, and
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
