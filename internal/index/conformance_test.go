package index

import (
	"math/rand"
	"slices"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/vecmath"
)

// This file is the index layer's conformance suite, in two parts:
//
//   - exactness: every registered backend that declares Exact answers set
//     for set like a brute-force scan, on small synthetic clusters and on
//     GloVe-like 200-d data at the paper's eps 0.5 — the input on which a
//     cover tree under cosine distance (which breaks the triangle
//     inequality its pruning assumes) misses neighbors;
//   - mutation: BruteForce, the only mutable index, is driven through a
//     scripted Insert/Delete/DeleteMany battery and held to a fresh scan
//     over the mirrored live point set.

// exactInput is one dataset the exactness check runs on.
type exactInput struct {
	name   string
	pts    [][]float32
	metric vecmath.Metric
	eps    float64
}

// TestExactBackendsMatchBrute holds every backend that declares Exact to
// the brute-force answer, query for query, under every metric it supports.
func TestExactBackendsMatchBrute(t *testing.T) {
	glove := dataset.GloVeLike(2000, 1).Vectors
	if testing.Short() {
		glove = glove[:500]
	}
	inputs := []exactInput{
		{"clusters-cosine", clusteredPoints(300, 16, 1), vecmath.Cosine, 0.4},
		{"clusters-euclidean", clusteredPoints(300, 16, 2), vecmath.Euclidean, 0.5},
		{"glove200-cosine", glove, vecmath.Cosine, 0.5},
	}
	for _, name := range Backends() {
		caps, _ := LookupBackend(name)
		if !caps.Exact {
			continue
		}
		for _, in := range inputs {
			if !caps.SupportsMetric(in.metric) {
				continue
			}
			t.Run(name+"/"+in.name, func(t *testing.T) {
				opts := BackendOptions{Metric: in.metric}
				idx, err := NewBackend(name, in.pts, opts)
				if err != nil {
					t.Fatal(err)
				}
				truth := NewBruteForce(in.pts, opts.distFunc())
				want := truth.BatchRangeSearch(in.pts, in.eps)
				got := idx.BatchRangeSearch(in.pts, in.eps)
				missed, extra := 0, 0
				for i := range in.pts {
					w, g := sortedCopy(want[i]), sortedCopy(got[i])
					for _, id := range w {
						if _, ok := slices.BinarySearch(g, id); !ok {
							missed++
						}
					}
					for _, id := range g {
						if _, ok := slices.BinarySearch(w, id); !ok {
							extra++
						}
					}
				}
				if missed+extra > 0 {
					t.Fatalf("%s declares Exact but missed %d and invented %d neighbors over %d queries",
						name, missed, extra, len(in.pts))
				}
				for _, q := range in.pts[:20] {
					if n, w := idx.RangeCount(q, in.eps), truth.RangeCount(q, in.eps); n != w {
						t.Fatalf("RangeCount = %d, want %d", n, w)
					}
				}
			})
		}
	}
}

// mutationEps is the cosine query radius of the mutation battery.
const mutationEps = 0.4

// applyOps drives the index through a scripted mutation sequence and
// mirrors it on a plain slice, returning the expected live point set.
func applyOps(t *testing.T, idx *BruteForce, pts [][]float32, seed int64) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mirror := slices.Clone(pts)
	for step := 0; step < 40; step++ {
		if rng.Intn(2) == 0 && len(mirror) > 8 {
			id := rng.Intn(len(mirror))
			idx.Delete(id)
			mirror = slices.Delete(mirror, id, id+1)
		} else {
			batch := make([][]float32, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = vecmath.RandomUnit(len(mirror[0]), rng)
			}
			idx.Insert(batch)
			mirror = append(mirror, batch...)
		}
	}
	return mirror
}

// checkAnswers holds a mutated index to a fresh scan over the live set:
// the same ids and counts, and every live point findable by its own query.
func checkAnswers(t *testing.T, idx *BruteForce, mirror [][]float32) {
	t.Helper()
	if idx.Len() != len(mirror) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(mirror))
	}
	truth := NewBruteForce(mirror, vecmath.CosineDistanceUnit)
	for _, q := range mirror[:min(20, len(mirror))] {
		got := idx.RangeSearch(q, mutationEps)
		exact := truth.RangeSearch(q, mutationEps)
		if !equalIDs(got, exact) {
			t.Fatalf("mutated index diverged from a fresh scan: %v vs %v", got, exact)
		}
		if n := idx.RangeCount(q, mutationEps); n != len(exact) {
			t.Fatalf("RangeCount = %d, want %d", n, len(exact))
		}
	}
	for i, q := range mirror {
		if ids := idx.RangeSearch(q, 1e-6); !slices.Contains(ids, i) {
			t.Fatalf("live point %d not found by its own query: %v", i, ids)
		}
	}
}

// TestDynamicConformance runs the scripted mutation battery: compacting-id
// semantics, Len bookkeeping and post-mutation answers.
func TestDynamicConformance(t *testing.T) {
	t.Run(BackendBrute, func(t *testing.T) {
		pts := clusteredPoints(60, 16, 1)
		idx := NewBruteForce(slices.Clone(pts), vecmath.CosineDistanceUnit)
		checkAnswers(t, idx, applyOps(t, idx, pts, 2))
	})
}

// TestDeleteManyConformance pins the batch-deletion path: one DeleteMany
// call must leave the index answering for the surviving, renumbered point
// set.
func TestDeleteManyConformance(t *testing.T) {
	t.Run(BackendBrute, func(t *testing.T) {
		pts := clusteredPoints(80, 12, 21)
		rng := rand.New(rand.NewSource(22))
		ids := rng.Perm(len(pts))[:25]
		slices.Sort(ids)
		mirror := make([][]float32, 0, len(pts)-len(ids))
		for i, p := range pts {
			if !slices.Contains(ids, i) {
				mirror = append(mirror, p)
			}
		}
		idx := NewBruteForce(slices.Clone(pts), vecmath.CosineDistanceUnit)
		idx.DeleteMany(slices.Clone(ids))
		checkAnswers(t, idx, mirror)
	})
}

// TestDeleteManyMatchesDeleteLoop pins DeleteMany against the per-id
// Delete loop it replaces, highest id first.
func TestDeleteManyMatchesDeleteLoop(t *testing.T) {
	t.Run(BackendBrute, func(t *testing.T) {
		ids := []int{3, 10, 11, 30, 59}
		pts := clusteredPoints(60, 12, 29)
		batch := NewBruteForce(slices.Clone(pts), vecmath.CosineDistanceUnit)
		batch.DeleteMany(slices.Clone(ids))
		loop := NewBruteForce(slices.Clone(pts), vecmath.CosineDistanceUnit)
		for i := len(ids) - 1; i >= 0; i-- {
			loop.Delete(ids[i])
		}
		if batch.Len() != loop.Len() {
			t.Fatalf("Len diverged: %d vs %d", batch.Len(), loop.Len())
		}
		for _, q := range pts[:20] {
			if a, b := batch.RangeSearch(q, mutationEps), loop.RangeSearch(q, mutationEps); !equalIDs(a, b) {
				t.Fatalf("DeleteMany vs Delete loop diverged: %v vs %v", a, b)
			}
		}
	})
}
