package index

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"lafdbscan/internal/vecmath"
)

func batchTestPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = vecmath.RandomUnit(dim, rng)
	}
	return pts
}

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			var hits atomic.Int64
			seen := make([]atomic.Int32, n)
			ForEach(n, workers, 8, func(i int) {
				hits.Add(1)
				seen[i].Add(1)
			})
			if hits.Load() != int64(n) {
				t.Fatalf("workers=%d n=%d: %d invocations", workers, n, hits.Load())
			}
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, seen[i].Load())
				}
			}
		}
	}
}

func TestBruteForceBatchMatchesSerial(t *testing.T) {
	pts := batchTestPoints(300, 16, 1)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	queries := pts[:50]
	const eps = 0.8
	batch := b.BatchRangeSearch(queries, eps)
	if len(batch) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		want := sortedCopy(b.RangeSearch(q, eps))
		got := sortedCopy(batch[i])
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("query %d: ids differ at %d: %d vs %d", i, k, got[k], want[k])
			}
		}
	}
}

func TestBruteForceBatchCountsQueries(t *testing.T) {
	pts := batchTestPoints(100, 8, 2)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	b.ResetQueries()
	b.BatchRangeSearch(pts[:37], 0.5)
	if got := b.Queries(); got != 37 {
		t.Errorf("query counter = %d, want 37", got)
	}
}

// coverTreeSearcher gives the static cover tree the RangeSearcher face the
// generic batch helpers take. It has no native batch or streaming path, so
// BatchRangeSearch and BatchRangeSearchFunc serve it through their
// per-query fallback loops.
type coverTreeSearcher struct{ *CoverTree }

func (c coverTreeSearcher) BatchRangeSearch(queries [][]float32, eps float64) [][]int {
	return BatchRangeSearch(c, queries, eps, 0, 0)
}

func TestCoverTreeBatchMatchesSerial(t *testing.T) {
	pts := batchTestPoints(200, 8, 3)
	ct := coverTreeSearcher{NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)}
	queries := pts[:40]
	const eps = 1.0
	batch := ct.BatchRangeSearch(queries, eps)
	for i, q := range queries {
		want := sortedCopy(ct.RangeSearch(q, eps))
		got := sortedCopy(batch[i])
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("query %d: id mismatch", i)
			}
		}
	}
}

func TestGenericBatchRangeSearchHelper(t *testing.T) {
	pts := batchTestPoints(150, 8, 4)
	ct := coverTreeSearcher{NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)}
	for _, workers := range []int{0, 1, 4} {
		batch := BatchRangeSearch(ct, pts[:20], 1.0, workers, 4)
		for i := range batch {
			want := ct.RangeSearch(pts[i], 1.0)
			if len(batch[i]) != len(want) {
				t.Fatalf("workers=%d query %d: %d ids, want %d", workers, i, len(batch[i]), len(want))
			}
		}
	}
}
