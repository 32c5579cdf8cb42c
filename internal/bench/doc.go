// Package bench drives the experiment suite that reproduces the paper:
// experiments E1–E12, each one figure, corollary, or cited empirical claim
// measured as a table, and ablations A1–A5 of this implementation's design
// choices (README's "Benchmarks and ablations" lists them). The same
// functions back the testing.B benchmarks in the repository root and the
// cmd/spannerbench CLI. A4 and A5 sweep the batch width of the graph and
// metric engines; both must leave the spanner unchanged (the engines are
// deterministic in their tuning knobs), so their tables double as
// equivalence evidence.
//
// Performance is measured by the protocol benchmark in benchmark/, not
// here. The package's tests also hold four regression guards, each on
// the n=4000 Euclidean instance and each gated behind an environment
// variable because it takes seconds to minutes; CI runs each as its own
// step:
//
//   - ALLOC_GUARD: the streamed build's sampled heap peak stays at least
//     5x below the materialized-pairs floor, at one worker and at the
//     default count.
//   - HUB_GUARD: hub labels certify at least half of all certified skips,
//     and the output digest equals the hubs-off build's.
//   - DYN_GUARD: insert-only, delete-only, and mixed traces on the
//     maintained spanner each beat rebuild-per-operation by at least 5x,
//     and each final digest equals the from-scratch build's.
//   - PERSIST_GUARD: persist.Open is at least 20x faster than a build, a
//     recovery that replays a WAL tail costs at most 2x a build, and every
//     opened digest equals the saved one.
package bench
