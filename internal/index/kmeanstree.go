package index

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"

	"lafdbscan/internal/vecmath"
)

// KMeansTree is a FLANN-style hierarchical k-means tree for approximate
// nearest-neighbor search, the index KNN-BLOCK DBSCAN relies on. Two
// parameters shape its speed/recall trade-off, exactly the knobs the paper
// sweeps in Figures 2–3:
//
//   - Branching: the k of each k-means split (paper default 10, swept 3–20)
//   - LeavesRatio: the fraction of leaves examined per query (paper default
//     0.6, swept 0.001–0.3 in the trade-off experiments)
type KMeansTree struct {
	points      [][]float32
	dist        vecmath.DistanceFunc
	branching   int
	leavesRatio float64
	maxLeaf     int
	root        *kmNode
	numLeaves   int
}

type kmNode struct {
	center   []float32
	children []*kmNode
	// members is non-nil exactly for leaves.
	members []int
}

// KMeansTreeConfig configures construction.
type KMeansTreeConfig struct {
	Branching   int     // default 10
	LeavesRatio float64 // default 0.6
	MaxLeaf     int     // default 32
	Iterations  int     // Lloyd iterations per split, default 5
	Seed        int64
}

// NewKMeansTree builds the tree. The points slice is retained.
func NewKMeansTree(points [][]float32, dist vecmath.DistanceFunc, cfg KMeansTreeConfig) *KMeansTree {
	if cfg.Branching < 2 {
		cfg.Branching = 10
	}
	if cfg.LeavesRatio <= 0 || cfg.LeavesRatio > 1 {
		cfg.LeavesRatio = 0.6
	}
	if cfg.MaxLeaf <= 0 {
		cfg.MaxLeaf = 32
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 5
	}
	t := &KMeansTree{
		points:      points,
		dist:        dist,
		branching:   cfg.Branching,
		leavesRatio: cfg.LeavesRatio,
		maxLeaf:     cfg.MaxLeaf,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	t.root = t.build(all, cfg.Iterations, rng)
	return t
}

// Len returns the number of indexed points.
func (t *KMeansTree) Len() int { return len(t.points) }

// NumLeaves returns the number of leaf nodes.
func (t *KMeansTree) NumLeaves() int { return t.numLeaves }

func (t *KMeansTree) build(ids []int, iters int, rng *rand.Rand) *kmNode {
	n := &kmNode{center: t.centroid(ids)}
	if len(ids) <= t.maxLeaf || len(ids) <= t.branching {
		n.members = ids
		t.numLeaves++
		return n
	}
	groups := t.kmeans(ids, t.branching, iters, rng)
	if len(groups) <= 1 {
		// Degenerate split (duplicate points); stop here.
		n.members = ids
		t.numLeaves++
		return n
	}
	for _, g := range groups {
		n.children = append(n.children, t.build(g, iters, rng))
	}
	return n
}

func (t *KMeansTree) centroid(ids []int) []float32 {
	dim := 0
	if len(t.points) > 0 {
		dim = len(t.points[0])
	}
	acc := make([]float64, dim)
	for _, id := range ids {
		for j, x := range t.points[id] {
			acc[j] += float64(x)
		}
	}
	c := make([]float32, dim)
	if len(ids) > 0 {
		inv := 1 / float64(len(ids))
		for j := range c {
			c[j] = float32(acc[j] * inv)
		}
	}
	return c
}

// kmeans clusters ids into at most k non-empty groups with a few Lloyd
// iterations, seeded with distinct random members.
func (t *KMeansTree) kmeans(ids []int, k, iters int, rng *rand.Rand) [][]int {
	if k > len(ids) {
		k = len(ids)
	}
	perm := rng.Perm(len(ids))
	centers := make([][]float32, k)
	for i := 0; i < k; i++ {
		centers[i] = vecmath.Clone(t.points[ids[perm[i]]])
	}
	assign := make([]int, len(ids))
	for it := 0; it < iters; it++ {
		changed := false
		for i, id := range ids {
			best, bestD := 0, math.Inf(1)
			for c, center := range centers {
				if d := t.dist(t.points[id], center); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		// recompute centers
		counts := make([]int, k)
		dim := len(centers[0])
		acc := make([][]float64, k)
		for c := range acc {
			acc[c] = make([]float64, dim)
		}
		for i, id := range ids {
			counts[assign[i]]++
			for j, x := range t.points[id] {
				acc[assign[i]][j] += float64(x)
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] = float32(acc[c][j] * inv)
			}
		}
	}
	groups := make([][]int, k)
	for i, id := range ids {
		groups[assign[i]] = append(groups[assign[i]], id)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// nodeHeap is a min-heap of (distance to center, node) used for best-first
// traversal.
type nodeHeap []nodeDist

type nodeDist struct {
	d float64
	n *kmNode
}

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// KNN returns up to k approximate nearest neighbors of q, sorted by
// distance. The search expands leaves best-first and stops after examining
// LeavesRatio of all leaves, so recall degrades gracefully as the ratio
// shrinks — the mechanism behind KNN-BLOCK's trade-off curve.
func (t *KMeansTree) KNN(q []float32, k int) ([]int, []float64) {
	if t.root == nil || k <= 0 {
		return nil, nil
	}
	budget := int(math.Ceil(t.leavesRatio * float64(t.numLeaves)))
	if budget < 1 {
		budget = 1
	}
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	pq := &nodeHeap{{0, t.root}}
	visited := 0
	for pq.Len() > 0 && visited < budget {
		nd := heap.Pop(pq).(nodeDist)
		n := nd.n
		if n.members != nil {
			visited++
			for _, id := range n.members {
				cands = append(cands, cand{id, t.dist(q, t.points[id])})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(pq, nodeDist{t.dist(q, c.center), c})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	if len(cands) > k {
		cands = cands[:k]
	}
	ids := make([]int, len(cands))
	dists := make([]float64, len(cands))
	for i, c := range cands {
		ids[i] = c.id
		dists[i] = c.d
	}
	return ids, dists
}

// RangeSearchApprox returns the ids among the best-first candidate pool
// with d(q, p) < eps. Unlike a brute-force range query it can miss
// neighbors outside the examined leaves; KNN-BLOCK uses it for cluster
// expansion.
func (t *KMeansTree) RangeSearchApprox(q []float32, eps float64) []int {
	ids, dists := t.KNN(q, t.Len())
	var out []int
	for i, id := range ids {
		if dists[i] >= eps {
			break
		}
		out = append(out, id)
	}
	return out
}

var _ KNNSearcher = (*KMeansTree)(nil)
