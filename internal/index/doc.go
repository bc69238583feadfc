// Package index provides the range-query and KNN engines the clustering
// algorithms are built on. Two are registry backends (backend.go), shared
// by DBSCAN, DBSCAN++, the LAF variants and the model: the exact
// (parallel) brute-force scanner and the approximate HNSW graph
// (internal/index/hnsw). The paper's baselines keep their own static
// structures: a cover tree for BLOCK-DBSCAN, a k-means tree for KNN-BLOCK
// DBSCAN and the sparse grid behind ρ-approximate DBSCAN.
//
// All engines operate over a slice of points identified by integer ids.
// Range semantics follow the paper: a range query with radius eps returns
// the ids of points with d(q, p) < eps (strict), including the query point
// itself when it is part of the indexed set.
//
// Three layers sit on top of the per-query engines:
//
//   - the batch layer (batch.go): a shared worker pool (ForEach) and batch
//     range-query entry points that parallelize across queries instead of
//     inside them — the right grain for the clustering drivers;
//   - the wave layer (wave.go): BatchRangeSearchFunc streams queries in
//     bounded waves and hands each result to a callback, so the live set is
//     O(WaveSize·avg|N|) regardless of dataset size; the wave barrier is
//     also the cancellation and progress point;
//   - the mutation path (dynamic.go): BruteForce's Insert/Delete/DeleteMany,
//     behind online model maintenance, with compacting id semantics
//     matching the point slice itself.
package index
