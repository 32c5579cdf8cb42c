// Package graph implements the weighted undirected graph substrate used by
// every spanner construction in this repository: adjacency-list graphs,
// Dijkstra variants (full, distance-bounded, target-pruned, and bounded
// bidirectional), breadth-first search, minimum spanning trees (Kruskal and
// Prim), a union-find structure, girth computation, second-shortest paths,
// and all-pairs shortest paths.
//
// Vertices are dense integers in [0, N()). Edge weights are positive
// float64s; all algorithms assume positive weights (shortest paths are
// well-defined and Dijkstra applies).
//
// The hot path of the greedy spanner engines is served by Searcher, which
// answers repeated distance queries and single-source rows over graphs of a
// fixed vertex count while reusing all internal scratch, so the per-query
// allocations of the convenience methods on Graph disappear from the main
// loops. Its BidirWithin grows bounded Dijkstra balls from both endpoints
// at once — two balls of radius ~limit/2 instead of one of radius limit —
// and stops as soon as a relaxation labels a vertex from both sides
// within limit: the yes-or-no certification primitive of the
// batched-parallel graph engine. BidirDistanceWithin runs the same search
// on to the exact distance for point queries (serving's distance
// endpoint). Its BoundedReach hands the vertices a bounded search reached
// to the caller and backs the concurrent bound-row refreshes of the
// metric engine. Every search runs on pq.IndexedMinHeap, a 4-ary heap
// that stores each key beside its item. A Searcher is not safe for
// concurrent use: parallel callers hold one Searcher per worker (the
// graph being queried may be shared read-only). Its scratches and heaps
// live inside it by value, padded at both ends, so one worker's pushes
// and pops never write a cache line another worker's Searcher uses, and
// it counts the vertices its searches label (TakeLabelled), the work
// volume the engines report.
package graph
