// Package hnsw implements a layered proximity-graph index (Malkov &
// Yashunin 2018, "Hierarchical Navigable Small World") for approximate
// range and k-nearest-neighbor queries with sub-linear scaling in the
// number of indexed points.
//
// The graph is deliberately deterministic: node levels are generated from
// a splitmix64 hash of (seed, insertion counter) rather than a shared RNG,
// so the same seed over the same points always produces the same graph —
// and therefore the same query answers. That property is what lets the
// backend registry rebuild an identical index when a persisted model is
// reloaded. The graph is static once built: a model that mutates its
// points swaps in the exact brute-force scan instead.
//
// Queries follow the standard two-phase search: greedy descent through
// the upper layers to a layer-0 entry point, then best-first expansion
// bounded by the EfSearch candidate list. Range queries widen the
// expansion bound to max(eps, worst-of-EfSearch), so every visited point
// within eps is reported; raising EfSearch trades query time for recall.
//
// Construction is the textbook one (Algorithm 4's neighbor-selection
// heuristic, keeping pruned links as backfill), with one change of method
// and none of result: when a neighbor list overflows, the heuristic is not
// re-run from scratch. Each list stores its distances, which of its links
// the last pass kept, and for each pruned link a witness, the kept link
// that pruned it. The new link is placed where a stable sort by distance
// would put it; decisions before it stand, and after it a kept link is
// checked only against links newly kept in this pass, while a pruned link
// stays pruned as long as its witness is kept. The new link, and any link
// appended before the list first overflowed, gets the full check. This is
// exact because a decision depends only on the links kept before it, and
// a pruned link changes no other decision. The graph is therefore the one
// the full re-prune builds, link for link, at about a fifth of its
// distance evaluations (pinned by reference_test.go).
//
// The package depends only on vecmath: the index package layers the
// batch/worker-pool plumbing and the backend registry on top of it.
package hnsw

import (
	"math"
	"sync"

	"lafdbscan/internal/vecmath"
)

// Defaults for Config fields left zero.
const (
	DefaultM              = 16
	DefaultEfConstruction = 128
	DefaultEfSearch       = 64
)

// maxLevel caps generated node levels; with mL = 1/ln(M) the probability
// of reaching it is astronomically small, the cap only bounds the damage
// of an adversarial hash value.
const maxLevel = 30

// Config shapes the speed/recall trade-off of the graph.
type Config struct {
	// M is the graph degree: each node keeps at most M links per upper
	// layer and 2M at layer 0. Default 16.
	M int
	// EfConstruction is the candidate-list width used while inserting;
	// larger values build better graphs more slowly. Default 128.
	EfConstruction int
	// EfSearch is the candidate-list width used while querying — the
	// recall knob. Default 64.
	EfSearch int
	// Seed drives deterministic level generation: the same seed over the
	// same points yields the same graph.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.M < 2 {
		c.M = DefaultM
	}
	if c.EfConstruction < 1 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.EfSearch < 1 {
		c.EfSearch = DefaultEfSearch
	}
	return c
}

// node is one graph vertex: a neighbor list per layer 0..level.
type node struct {
	layers []adjList
}

// adjList is one node's neighbor list at one layer, stored the way the
// selection heuristic left it so that a later overflow can re-decide only
// what the new link changes (see link):
//
//	ids[:kept]         the heuristic's survivors, by ascending distance
//	ids[kept:scanned]  pruned backfill, by ascending distance
//	ids[scanned:]      links appended since, not yet scanned
//
// ds[k] is the distance from the node to ids[k], and wit[k] (for
// kept <= k < scanned) the index of the kept neighbor that pruned ids[k].
type adjList struct {
	ids           []int32
	ds            []float64
	wit           []int32
	kept, scanned int
}

// newAdjList allocates a list with room for limit links. ids and wit share
// one allocation; the capacity caps keep appends to ids off wit.
func newAdjList(limit int) adjList {
	buf := make([]int32, 2*limit)
	return adjList{
		ids: buf[:0:limit],
		ds:  make([]float64, 0, limit),
		wit: buf[limit:],
	}
}

// Graph is the index. Queries (RangeSearch, RangeCount, KNN) are safe for
// concurrent use; SetEfSearch must not run concurrently with them.
type Graph struct {
	points [][]float32
	dist   vecmath.DistanceFunc
	cfg    Config
	mL     float64

	nodes    []node
	entry    int // id of the top-layer entry point, -1 when empty
	topLayer int

	inserted uint64 // insertion counter feeding level generation

	pool sync.Pool // *searchCtx

	// prune is the selection heuristic's scratch, reused by every
	// selectNeighbors call; the build is single-goroutine.
	prune pruneScratch
}

// New builds a graph over points with the given distance. The points
// slice is retained, not copied.
//
// dist must be symmetric bit for bit: dist(a, b) == dist(b, a) exactly.
// The build stores the distance a new node computed to each neighbor and
// reuses it as that neighbor's distance back to the node. The vecmath
// distances (CosineDistanceUnit, CosineDistance, EuclideanDistance)
// satisfy this, as their tests pin.
func New(points [][]float32, dist vecmath.DistanceFunc, cfg Config) *Graph {
	g := &Graph{
		points: points,
		dist:   dist,
		cfg:    cfg.withDefaults(),
		entry:  -1,
	}
	g.mL = 1 / math.Log(float64(g.cfg.M))
	g.pool.New = func() any { return new(searchCtx) }
	for i := range g.points {
		g.addNode(i)
	}
	return g
}

// Len returns the number of indexed points.
func (g *Graph) Len() int { return len(g.points) }

// Config returns the normalized configuration the graph was built with.
func (g *Graph) Config() Config { return g.cfg }

// SetEfSearch adjusts the query-time recall knob without rebuilding. It
// is a mutation: do not call it concurrently with queries.
func (g *Graph) SetEfSearch(ef int) {
	if ef < 1 {
		ef = DefaultEfSearch
	}
	g.cfg.EfSearch = ef
}

// TopLayer returns the current highest layer of the graph (0 for a
// single-layer graph, -1 when empty). Exposed for tests.
func (g *Graph) TopLayer() int {
	if g.entry < 0 {
		return -1
	}
	return g.topLayer
}

// splitmix64 is the finalizer of the SplitMix64 generator — a bijective
// avalanche hash, the standard way to turn a counter into uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextLevel draws the level of the next inserted node from the geometric
// distribution floor(-ln(u)·mL), hashing (seed, counter) so the sequence
// is a pure function of the insertion order.
func (g *Graph) nextLevel() int {
	g.inserted++
	h := splitmix64(uint64(g.cfg.Seed))
	h = splitmix64(h ^ g.inserted)
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform in [0, 1)
	level := int(-math.Log(1-u) * g.mL)
	if level > maxLevel {
		level = maxLevel
	}
	return level
}

// maxLinks is the degree bound at a layer: 2M at the base layer (where
// every node lives and range expansion happens), M above.
func (g *Graph) maxLinks(layer int) int {
	if layer == 0 {
		return 2 * g.cfg.M
	}
	return g.cfg.M
}

// --- construction ---

// addNode inserts point i (already present in g.points) into the graph.
func (g *Graph) addNode(i int) {
	level := g.nextLevel()
	layers := make([]adjList, level+1)
	for l := range layers {
		layers[l] = newAdjList(g.maxLinks(l))
	}
	g.nodes = append(g.nodes, node{layers: layers})
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
		own := &g.nodes[i].layers[l]
		g.selectNeighbors(own, ids, ds, nil, 0, 0, g.maxLinks(l))
		for k, nb := range own.ids {
			g.link(nb, int32(i), own.ds[k], l)
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

// link adds m, at distance dm from n, to n's layer-l neighbor list. When
// the list overflows its degree bound, the selection heuristic re-runs
// over the list and m, reusing every earlier decision that m cannot
// change (see selectNeighbors). dm is the distance the new node computed
// to n, reused as n's distance to it: New requires a symmetric dist.
func (g *Graph) link(n, m int32, dm float64, l int) {
	a := &g.nodes[n].layers[l]
	limit := g.maxLinks(l)
	if len(a.ids) < limit {
		a.ids = append(a.ids, m)
		a.ds = append(a.ds, dm)
		return
	}
	s := &g.prune
	s.ids = append(append(s.ids[:0], a.ids...), m)
	s.ds = append(append(s.ds[:0], a.ds...), dm)
	g.selectNeighbors(a, s.ids, s.ds, a.wit, a.kept, a.scanned, limit)
}

// selectNeighbors applies the HNSW neighbor-selection heuristic
// (Algorithm 4): a candidate is kept only if it is closer to the node than
// to every already-kept neighbor, which spreads links across directions
// instead of bunching them in the nearest cluster. Pruned candidates
// backfill remaining slots (keepPrunedConnections) so the graph keeps its
// degree. At most m links are written to dst in adjList order.
//
// Candidate c is ids[c] at distance ds[c]. Candidates below kept were kept
// by an earlier pass and those in [kept, scanned) pruned, wit[c] naming
// the candidate that pruned c; the rest are new. A decision depends only
// on the candidates kept before it, so an earlier decision is re-checked
// only where that set may have changed: a kept candidate against the
// candidates newly kept in this pass, a pruned one only once its witness
// is no longer kept. New candidates get the full check.
func (g *Graph) selectNeighbors(dst *adjList, ids []int32, ds []float64, wit []int32, kept, scanned, m int) {
	s := &g.prune
	s.begin(ds, kept, scanned)
	for _, c := range s.order {
		if len(s.out) == m {
			break
		}
		var by int32
		switch {
		case int(c) < kept:
			by = g.prunedBy(ids, c, ds[c], kept)
		case int(c) < scanned:
			if by = s.slot[wit[c]]; by < 0 {
				by = g.prunedBy(ids, c, ds[c], 0)
			}
		default:
			by = g.prunedBy(ids, c, ds[c], 0)
		}
		if by < 0 {
			s.slot[c] = int32(len(s.out))
			s.out = append(s.out, c)
		} else {
			s.pruned = append(s.pruned, c)
			s.by = append(s.by, by)
		}
	}
	dst.ids, dst.ds = dst.ids[:0], dst.ds[:0]
	for _, c := range s.out {
		dst.ids = append(dst.ids, ids[c])
		dst.ds = append(dst.ds, ds[c])
	}
	dst.kept = len(dst.ids)
	for k, c := range s.pruned {
		if len(dst.ids) == m {
			break
		}
		dst.wit[len(dst.ids)] = s.by[k]
		dst.ids = append(dst.ids, ids[c])
		dst.ds = append(dst.ds, ds[c])
	}
	dst.scanned = len(dst.ids)
}

// prunedBy returns the position in out of the first kept candidate, among
// those numbered from on, that is closer to candidate c than the node is
// (dc), or -1 when none is. from = kept skips the candidates an earlier
// pass kept, leaving only those newly kept in this one.
func (g *Graph) prunedBy(ids []int32, c int32, dc float64, from int) int32 {
	s := &g.prune
	p := g.points[ids[c]]
	for j, o := range s.out {
		if int(o) < from {
			continue
		}
		if g.dist(p, g.points[ids[o]]) < dc {
			return int32(j)
		}
	}
	return -1
}

// pruneScratch holds the working state of one selectNeighbors pass.
type pruneScratch struct {
	ids []int32   // link: the overflowing list plus the new link
	ds  []float64 // and their distances

	order  []int32 // candidates by ascending distance, ties by index
	slot   []int32 // candidate -> position in out, -1 while not kept
	out    []int32 // kept candidates, in order
	pruned []int32 // pruned candidates, in order
	by     []int32 // position in out of the candidate that pruned pruned[k]
}

// begin resets the scratch for len(ds) candidates and orders them the way
// a stable sort by distance would: the kept and pruned runs, each sorted
// already, are merged with kept first on ties, and every later candidate
// is inserted after all entries at an equal or smaller distance.
func (s *pruneScratch) begin(ds []float64, kept, scanned int) {
	s.order, s.slot = s.order[:0], s.slot[:0]
	s.out, s.pruned, s.by = s.out[:0], s.pruned[:0], s.by[:0]
	for i, j := 0, kept; i < kept || j < scanned; {
		if j == scanned || (i < kept && ds[i] <= ds[j]) {
			s.order = append(s.order, int32(i))
			i++
		} else {
			s.order = append(s.order, int32(j))
			j++
		}
	}
	for c := scanned; c < len(ds); c++ {
		s.order = append(s.order, int32(c))
		k := len(s.order) - 1
		for k > 0 && ds[s.order[k-1]] > ds[c] {
			s.order[k] = s.order[k-1]
			k--
		}
		s.order[k] = int32(c)
	}
	for range ds {
		s.slot = append(s.slot, -1)
	}
}

// --- search ---

// greedyLayer walks layer l greedily from ep toward q until no neighbor
// improves the distance — the upper-layer descent of every query.
func (g *Graph) greedyLayer(q []float32, ep int32, d float64, l int) (int32, float64) {
	for {
		improved := false
		for _, nb := range g.nodes[ep].layers[l].ids {
			if nd := g.dist(q, g.points[nb]); nd < d {
				ep, d = nb, nd
				improved = true
			}
		}
		if !improved {
			return ep, d
		}
	}
}

// descend runs the greedy upper-layer phase from the entry point down to
// layer 1, returning the layer-0 starting point.
func (g *Graph) descend(q []float32) (int32, float64) {
	ep := int32(g.entry)
	d := g.dist(q, g.points[ep])
	for l := g.topLayer; l >= 1; l-- {
		ep, d = g.greedyLayer(q, ep, d, l)
	}
	return ep, d
}

// searchLayer is the best-first expansion at one layer — the inner loop
// of every query and every insertion, run once per visited node per
// query. The frontier is a fixed-capacity min-heap, the result set a
// fixed-capacity max-heap of the ef closest points, and visited
// marks are epoch-stamped, so the loop performs no allocation: all
// scratch lives in sc, sized by sc.reset before the call.
//
// With eps > 0 the expansion bound widens from worst-of-ef to
// max(eps, worst-of-ef) and every visited point within eps is
// recorded in sc.out — the range-query mode. With eps = 0 the bound is
// the classic ef-limited one (KNN and construction mode).
//
//lafvet:hotpath
func (g *Graph) searchLayer(sc *searchCtx, q []float32, ep int32, epDist float64, layer, ef int, eps float64) {
	sc.mark(ep)
	sc.candPush(ep, epDist)
	sc.resPush(ep, epDist, ef)
	if epDist < eps {
		sc.out[sc.outN] = ep
		sc.outN++
	}
	for sc.candN > 0 {
		cd := sc.candD[0]
		bound := math.Inf(1)
		if sc.resN >= ef {
			bound = sc.resD[0]
			if eps > bound {
				bound = eps
			}
		}
		if cd > bound {
			break
		}
		ci := sc.candPop()
		for _, nb := range g.nodes[ci].layers[layer].ids {
			if sc.seen(nb) {
				continue
			}
			sc.mark(nb)
			d := g.dist(q, g.points[nb])
			if sc.resN < ef || d < sc.resD[0] || d < eps {
				sc.candPush(nb, d)
				sc.resPush(nb, d, ef)
				if d < eps {
					sc.out[sc.outN] = nb
					sc.outN++
				}
			}
		}
	}
}

// RangeSearch implements the RangeSearcher contract: all indexed points
// within eps of q, modulo the graph's approximation — every reported id
// is a true neighbor (distances are computed exactly), but neighbors in
// regions the bounded expansion never reaches can be missed. Raising
// EfSearch shrinks that miss rate.
func (g *Graph) RangeSearch(q []float32, eps float64) []int {
	if g.entry < 0 {
		return nil
	}
	sc := g.getCtx(g.cfg.EfSearch)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, g.cfg.EfSearch, eps)
	var out []int
	if sc.outN > 0 {
		out = make([]int, sc.outN)
		for k := 0; k < sc.outN; k++ {
			out[k] = int(sc.out[k])
		}
	}
	g.putCtx(sc)
	return out
}

// RangeCount implements the RangeSearcher contract without materializing
// ids.
func (g *Graph) RangeCount(q []float32, eps float64) int {
	if g.entry < 0 {
		return 0
	}
	sc := g.getCtx(g.cfg.EfSearch)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, g.cfg.EfSearch, eps)
	n := sc.outN
	g.putCtx(sc)
	return n
}

// KNN implements the KNNSearcher contract: up to k approximate nearest
// neighbors sorted by ascending distance. The candidate list is
// max(EfSearch, k) wide.
func (g *Graph) KNN(q []float32, k int) ([]int, []float64) {
	if g.entry < 0 || k <= 0 {
		return nil, nil
	}
	ef := g.cfg.EfSearch
	if ef < k {
		ef = k
	}
	sc := g.getCtx(ef)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, ef, 0)
	ids, ds := sc.resExtract()
	if len(ids) > k {
		ids, ds = ids[:k], ds[:k]
	}
	outIDs := make([]int, len(ids))
	outDs := make([]float64, len(ds))
	for i := range ids {
		outIDs[i] = int(ids[i])
		outDs[i] = ds[i]
	}
	g.putCtx(sc)
	return outIDs, outDs
}

// --- per-query scratch ---

// getCtx takes a scratch context from the pool, sized for the current
// graph.
func (g *Graph) getCtx(ef int) *searchCtx {
	sc := g.pool.Get().(*searchCtx)
	sc.reset(len(g.nodes), ef)
	return sc
}

func (g *Graph) putCtx(sc *searchCtx) { g.pool.Put(sc) }

// searchCtx is the allocation-free scratch of one query: epoch-stamped
// visited marks, the candidate min-heap (frontier), the result max-heap
// (ef closest points) and the range-result buffer. Capacities are
// bounds, not guesses: the visited guard admits each node into the
// frontier and the range buffer at most once, so length-n arrays can
// never overflow.
type searchCtx struct {
	visited []uint32
	epoch   uint32

	candID []int32
	candD  []float64
	candN  int

	resID []int32
	resD  []float64
	resN  int

	out  []int32
	outN int
}

// reset prepares the context for a query over n nodes with an ef-wide
// result set. Growth happens here, outside the hot loop.
func (sc *searchCtx) reset(n, ef int) {
	if len(sc.visited) < n {
		// Grow geometrically: the build adds one node per reset, and
		// growing to exactly n would reallocate on every insertion.
		size := 2 * len(sc.visited)
		if size < n {
			size = n
		}
		sc.visited = make([]uint32, size)
		sc.candID = make([]int32, size)
		sc.candD = make([]float64, size)
		sc.out = make([]int32, size)
		sc.epoch = 0
	}
	if len(sc.resID) < ef {
		sc.resID = make([]int32, ef)
		sc.resD = make([]float64, ef)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear the stale marks and restart
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.candN, sc.resN, sc.outN = 0, 0, 0
}

func (sc *searchCtx) seen(i int32) bool { return sc.visited[i] == sc.epoch }
func (sc *searchCtx) mark(i int32)      { sc.visited[i] = sc.epoch }

// candPush adds an entry to the frontier min-heap.
func (sc *searchCtx) candPush(id int32, d float64) {
	i := sc.candN
	sc.candID[i], sc.candD[i] = id, d
	sc.candN++
	for i > 0 {
		p := (i - 1) / 2
		if sc.candD[p] <= sc.candD[i] {
			break
		}
		sc.candID[p], sc.candID[i] = sc.candID[i], sc.candID[p]
		sc.candD[p], sc.candD[i] = sc.candD[i], sc.candD[p]
		i = p
	}
}

// candPop removes and returns the closest frontier entry.
func (sc *searchCtx) candPop() int32 {
	id := sc.candID[0]
	sc.candN--
	n := sc.candN
	sc.candID[0], sc.candD[0] = sc.candID[n], sc.candD[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && sc.candD[r] < sc.candD[l] {
			m = r
		}
		if sc.candD[i] <= sc.candD[m] {
			break
		}
		sc.candID[i], sc.candID[m] = sc.candID[m], sc.candID[i]
		sc.candD[i], sc.candD[m] = sc.candD[m], sc.candD[i]
		i = m
	}
	return id
}

// resPush offers an entry to the ef-bounded result max-heap, evicting the
// current worst when full.
func (sc *searchCtx) resPush(id int32, d float64, ef int) {
	if sc.resN < ef {
		i := sc.resN
		sc.resID[i], sc.resD[i] = id, d
		sc.resN++
		for i > 0 {
			p := (i - 1) / 2
			if sc.resD[p] >= sc.resD[i] {
				break
			}
			sc.resID[p], sc.resID[i] = sc.resID[i], sc.resID[p]
			sc.resD[p], sc.resD[i] = sc.resD[i], sc.resD[p]
			i = p
		}
		return
	}
	if d >= sc.resD[0] {
		return
	}
	sc.resID[0], sc.resD[0] = id, d
	sc.resSiftDown(0, sc.resN)
}

func (sc *searchCtx) resSiftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && sc.resD[r] > sc.resD[l] {
			m = r
		}
		if sc.resD[i] >= sc.resD[m] {
			return
		}
		sc.resID[i], sc.resID[m] = sc.resID[m], sc.resID[i]
		sc.resD[i], sc.resD[m] = sc.resD[m], sc.resD[i]
		i = m
	}
}

// resExtract heapsorts the result set in place and returns it sorted by
// ascending distance. The returned slices alias the context's arrays and
// are valid until the next reset; the heap is consumed.
func (sc *searchCtx) resExtract() ([]int32, []float64) {
	n := sc.resN
	for sc.resN > 1 {
		last := sc.resN - 1
		sc.resID[0], sc.resID[last] = sc.resID[last], sc.resID[0]
		sc.resD[0], sc.resD[last] = sc.resD[last], sc.resD[0]
		sc.resN--
		sc.resSiftDown(0, sc.resN)
	}
	sc.resN = 0
	return sc.resID[:n], sc.resD[:n]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
