package hnsw

import (
	"math/rand"
	"slices"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/vecmath"
)

// refGraph builds the graph the textbook way and is the oracle of the
// incremental re-prune. On every overflow its link recomputes the node's
// distance to each neighbor, sorts the list and re-runs the selection
// heuristic from scratch. Search and level generation are the Graph's
// own; only the neighbor lists differ in how they are maintained
// (refGraph fills adjList.ids alone).
type refGraph struct{ *Graph }

func newRef(points [][]float32, dist vecmath.DistanceFunc, cfg Config) refGraph {
	r := refGraph{New(nil, dist, cfg)}
	r.points = points
	for i := range points {
		r.addNode(i)
	}
	return r
}

func (r refGraph) addNode(i int) {
	g := r.Graph
	level := g.nextLevel()
	g.nodes = append(g.nodes, node{layers: make([]adjList, level+1)})
	if g.entry < 0 {
		g.entry = i
		g.topLayer = level
		return
	}
	q := g.points[i]
	ep := int32(g.entry)
	d := g.dist(q, g.points[ep])
	for l := g.topLayer; l > level; l-- {
		ep, d = g.greedyLayer(q, ep, d, l)
	}
	sc := g.getCtx(g.cfg.EfConstruction)
	for l := minInt(level, g.topLayer); l >= 0; l-- {
		sc.reset(len(g.nodes), g.cfg.EfConstruction)
		g.searchLayer(sc, q, ep, d, l, g.cfg.EfConstruction, 0)
		ids, ds := sc.resExtract()
		nbrs := r.selectNeighbors(ids, ds, g.maxLinks(l))
		g.nodes[i].layers[l].ids = nbrs
		for _, nb := range nbrs {
			r.link(nb, int32(i), l)
		}
		if len(ids) > 0 {
			ep, d = ids[0], ds[0]
		}
	}
	g.putCtx(sc)
	if level > g.topLayer {
		g.topLayer = level
		g.entry = i
	}
}

// selectNeighbors is Algorithm 4 with keepPrunedConnections over
// candidates sorted by ascending distance.
func (r refGraph) selectNeighbors(ids []int32, ds []float64, m int) []int32 {
	out := make([]int32, 0, m)
	var pruned []int32
	for k, c := range ids {
		if len(out) == m {
			break
		}
		keep := true
		for _, s := range out {
			if r.dist(r.points[c], r.points[s]) < ds[k] {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, c)
	}
	return out
}

// link is the full re-prune: append, and on overflow recompute, sort and
// select again.
func (r refGraph) link(n, m int32, l int) {
	nbrs := append(r.nodes[n].layers[l].ids, m)
	limit := r.maxLinks(l)
	if len(nbrs) > limit {
		p := r.points[n]
		ds := make([]float64, len(nbrs))
		for k, nb := range nbrs {
			ds[k] = r.dist(p, r.points[nb])
		}
		sortByDist(nbrs, ds)
		nbrs = r.selectNeighbors(nbrs, ds, limit)
	}
	r.nodes[n].layers[l].ids = nbrs
}

// sortByDist sorts ids and ds together by ascending distance with a
// stable insertion sort.
func sortByDist(ids []int32, ds []float64) {
	for i := 1; i < len(ds); i++ {
		id, d := ids[i], ds[i]
		j := i - 1
		for j >= 0 && ds[j] > d {
			ids[j+1], ds[j+1] = ids[j], ds[j]
			j--
		}
		ids[j+1], ds[j+1] = id, d
	}
}

// adjacency copies every neighbor list, node by node and layer by layer.
func adjacency(g *Graph) [][][]int32 {
	out := make([][][]int32, len(g.nodes))
	for i, n := range g.nodes {
		for _, a := range n.layers {
			out[i] = append(out[i], slices.Clone(a.ids))
		}
	}
	return out
}

// requireSameGraph fails unless got and want have the same entry point,
// top layer and neighbor lists, in order.
func requireSameGraph(t *testing.T, got *Graph, want refGraph) {
	t.Helper()
	if got.entry != want.entry || got.topLayer != want.topLayer {
		t.Fatalf("entry/top layer (%d, %d), reference (%d, %d)", got.entry, got.topLayer, want.entry, want.topLayer)
	}
	a, b := adjacency(got), adjacency(want.Graph)
	if len(a) != len(b) {
		t.Fatalf("%d nodes, reference %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("node %d: %d layers, reference %d", i, len(a[i]), len(b[i]))
		}
		for l := range a[i] {
			if !slices.Equal(a[i][l], b[i][l]) {
				t.Fatalf("node %d layer %d:\n got %v\nwant %v", i, l, a[i][l], b[i][l])
			}
		}
	}
}

// scaled returns the points each multiplied by a random factor in
// [0.5, 3), so cosine distance cannot take the unit-vector shortcut.
func scaled(pts [][]float32, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, len(pts))
	for i, p := range pts {
		f := float32(0.5 + 2.5*rng.Float64())
		out[i] = make([]float32, len(p))
		for k, x := range p {
			out[i][k] = f * x
		}
	}
	return out
}

// quantized returns n points of dim coordinates drawn from {-2..2}: few
// distinct vectors and pairwise distances, so the lists are full of ties.
func quantized(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dim)
		for k := range out[i] {
			out[i][k] = float32(rng.Intn(5) - 2)
		}
	}
	return out
}

// TestIncrementalPruneMatchesReference pins the incremental re-prune to the
// textbook build: the same adjacency lists, layer by layer and in order.
func TestIncrementalPruneMatchesReference(t *testing.T) {
	glove := dataset.GloVeLike(600, 3).Vectors
	base := clusteredPoints(150, 16, 41)
	var repeated [][]float32
	for k := 0; k < 4; k++ {
		repeated = append(repeated, base...)
	}
	cases := []struct {
		name string
		pts  [][]float32
		dist vecmath.DistanceFunc
		cfg  Config
	}{
		{"glove-cosine-unit", glove, vecmath.CosineDistanceUnit, Config{Seed: 1}},
		{"glove-euclidean", glove, vecmath.EuclideanDistance, Config{Seed: 2}},
		{"cosine-non-unit", scaled(glove[:500], 5), vecmath.CosineDistance, Config{Seed: 3}},
		{"repeated-4x", repeated, vecmath.CosineDistanceUnit, Config{Seed: 4}},
		{"quantized-ties", quantized(600, 6, 6), vecmath.EuclideanDistance, Config{Seed: 5, M: 4}},
		{"m2-small-ef", clusteredPoints(500, 16, 7), vecmath.CosineDistanceUnit, Config{Seed: 6, M: 2, EfConstruction: 6}},
		{"m3-small-ef", clusteredPoints(500, 16, 8), vecmath.EuclideanDistance, Config{Seed: 7, M: 3, EfConstruction: 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := New(slices.Clone(c.pts), c.dist, c.cfg)
			want := newRef(slices.Clone(c.pts), c.dist, c.cfg)
			requireSameGraph(t, got, want)
		})
	}
}

// TestIncrementalPruneEvaluatesFewerDistances counts distance evaluations,
// not wall time: building the 2000-point GloVe-like graph must take at
// most a third of the textbook build's evaluations, for the same graph.
func TestIncrementalPruneEvaluatesFewerDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-point 200-d graph twice; skipped in -short")
	}
	pts := dataset.GloVeLike(2000, 1).Vectors
	counting := func(n *int64) vecmath.DistanceFunc {
		return func(a, b []float32) float64 {
			*n++
			return vecmath.CosineDistanceUnit(a, b)
		}
	}
	var inc, ref int64
	got := New(slices.Clone(pts), counting(&inc), Config{Seed: 1})
	want := newRef(slices.Clone(pts), counting(&ref), Config{Seed: 1})
	requireSameGraph(t, got, want)
	t.Logf("distance evaluations: incremental %d, reference %d (%.2fx)", inc, ref, float64(ref)/float64(inc))
	if 3*inc > ref {
		t.Fatalf("incremental build evaluated %d distances, more than a third of the reference's %d", inc, ref)
	}
}
