// Package metric defines the finite metric-space abstraction used by the
// metric spanner constructions (greedy path-greedy, approximate-greedy,
// Θ/Yao/WSPD baselines) and provides concrete implementations: Euclidean
// point sets of any dimension, explicit distance matrices, and shortest-path
// metrics induced by graphs (the M_G of the paper's Section 2). It also
// implements doubling-dimension estimation via r-nets and exhaustive metric
// sanity checks.
//
// A Metric is simply N() points with a symmetric positive Dist; every
// construction in this repository consumes metrics through that interface,
// so Euclidean, matrix-backed, and graph-induced spaces are
// interchangeable — the equivalence tests for the parallel cached-bound
// metric engine sweep all three. CompleteGraph materializes a metric as the
// complete weighted graph the greedy algorithm scans.
package metric
