package index

import (
	"fmt"

	"lafdbscan/internal/index/hnsw"
	"lafdbscan/internal/vecmath"
)

// This file is the backend registry: the range-query structures the
// clustering engines and the model share, addressable by name, with
// declared capabilities. The baselines' own structures (the cover tree,
// the k-means tree and the grid) stay private to their drivers: at the
// paper's dimensionality they never beat the exact scan. The root
// Params/Fit API, the lafserve dataset registry and both CLIs resolve
// index construction through it instead of hardcoding one constructor,
// so adding a backend (sharded, quantized, ...) means adding one entry
// here and nothing anywhere else. Resolution is a declared fallback
// chain filtered by requirements — the production idiom of vector
// stores with an `hnsw|flat` index option and a graceful degradation
// path.

// The registered backend names.
const (
	// BackendBrute is the exact parallel scan — the reference answer and
	// the terminal fallback of every chain.
	BackendBrute = "brute"
	// BackendHNSW is the layered proximity graph (approximate, sub-linear
	// queries; see internal/index/hnsw).
	BackendHNSW = "hnsw"
)

// Capabilities declare what a backend can honestly promise; resolution
// filters chains through them.
type Capabilities struct {
	// Exact: RangeSearch returns exactly the eps-neighborhood. Approximate
	// backends may miss neighbors (they never invent them).
	Exact bool `json:"exact"`
	// KNN: implements KNNSearcher.
	KNN bool `json:"knn"`
	// Cosine / Euclidean: the metrics the backend answers under.
	Cosine    bool `json:"cosine"`
	Euclidean bool `json:"euclidean"`
}

// SupportsMetric reports whether the backend answers under m.
func (c Capabilities) SupportsMetric(m vecmath.Metric) bool {
	switch m {
	case vecmath.Cosine:
		return c.Cosine
	case vecmath.Euclidean:
		return c.Euclidean
	default:
		return false
	}
}

// BackendOptions carries every construction knob a backend might need;
// each backend reads its own fields and ignores the rest. Zero values
// select the same defaults the underlying constructors document.
type BackendOptions struct {
	// Metric selects the distance. Cosine uses the unit-vector fast path
	// (all datasets here are normalized on creation), matching the
	// historical NewBruteForceIndex behavior.
	Metric vecmath.Metric
	// Dist overrides the metric's distance function when non-nil (tests
	// use it to instrument distance evaluations). It must be symmetric bit
	// for bit, Dist(a, b) == Dist(b, a) exactly: the HNSW build reuses
	// each distance in both directions (see hnsw.New).
	Dist vecmath.DistanceFunc
	// M / EfConstruction / EfSearch configure the HNSW graph.
	M              int
	EfConstruction int
	EfSearch       int
	// Seed drives the deterministic randomized builds.
	Seed int64
}

func (o BackendOptions) distFunc() vecmath.DistanceFunc {
	if o.Dist != nil {
		return o.Dist
	}
	if o.Metric == vecmath.Cosine {
		return vecmath.CosineDistanceUnit
	}
	return o.Metric.Func()
}

// backendSpec is one registry entry. The registry is an ordered slice,
// not a map, so every listing and every error message is deterministic.
type backendSpec struct {
	name  string
	caps  Capabilities
	build func(points [][]float32, o BackendOptions) (RangeSearcher, error)
}

var backendRegistry = []backendSpec{
	{BackendBrute,
		Capabilities{Exact: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			return NewBruteForce(points, o.distFunc()), nil
		}},
	{BackendHNSW,
		Capabilities{KNN: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			return hnswSearcher{hnsw.New(points, o.distFunc(), hnsw.Config{
				M: o.M, EfConstruction: o.EfConstruction, EfSearch: o.EfSearch, Seed: o.Seed,
			})}, nil
		}},
}

// Backends lists every registered backend name in registry order.
func Backends() []string {
	out := make([]string, len(backendRegistry))
	for i, s := range backendRegistry {
		out[i] = s.name
	}
	return out
}

// LookupBackend returns the capabilities of a named backend.
func LookupBackend(name string) (Capabilities, bool) {
	for _, s := range backendRegistry {
		if s.name == name {
			return s.caps, true
		}
	}
	return Capabilities{}, false
}

// NewBackend builds the named backend over points. It fails on unknown
// names and unsupported metrics — the same conditions ResolveBackend
// filters on, so a resolved name always builds.
func NewBackend(name string, points [][]float32, o BackendOptions) (RangeSearcher, error) {
	for _, s := range backendRegistry {
		if s.name != name {
			continue
		}
		if !s.caps.SupportsMetric(o.Metric) {
			return nil, fmt.Errorf("index: backend %q does not support metric %v", name, o.Metric)
		}
		return s.build(points, o)
	}
	return nil, fmt.Errorf("index: unknown backend %q (have %v)", name, Backends())
}

// Requirements filter a fallback chain during resolution.
type Requirements struct {
	// Exact demands the exact eps-neighborhood (the default everywhere a
	// caller has not opted into approximation, preserving bit-identical
	// labels).
	Exact bool
	// Metric is the distance the index must answer under.
	Metric vecmath.Metric
}

// Satisfies reports whether capabilities c meet req.
func (c Capabilities) Satisfies(req Requirements) bool {
	if req.Exact && !c.Exact {
		return false
	}
	return c.SupportsMetric(req.Metric)
}

// DefaultChain is the declared fallback preference: the sub-linear graph
// first, the exact scan as the terminal fallback. Callers that require
// exactness resolve straight through to brute force; callers that opt
// into approximation land on HNSW.
func DefaultChain() []string {
	return []string{BackendHNSW, BackendBrute}
}

// ResolveBackend walks chain and returns the first backend whose
// capabilities satisfy req, or an error naming every rejection — the
// operator-facing explanation of why a preference was skipped.
func ResolveBackend(chain []string, req Requirements) (string, error) {
	if len(chain) == 0 {
		chain = DefaultChain()
	}
	var rejected []string
	for _, name := range chain {
		caps, ok := LookupBackend(name)
		if !ok {
			return "", fmt.Errorf("index: unknown backend %q in chain %v (have %v)", name, chain, Backends())
		}
		if caps.Satisfies(req) {
			return name, nil
		}
		rejected = append(rejected, name)
	}
	return "", fmt.Errorf("index: no backend in chain %v satisfies the requirements (rejected %v for metric %v)",
		chain, rejected, req.Metric)
}

// --- adapters: every backend behind the uniform RangeSearcher face ---

// hnswSearcher layers the batch worker-pool plumbing over the graph; the
// graph itself stays free of index-package dependencies.
type hnswSearcher struct{ *hnsw.Graph }

// BatchRangeSearch implements RangeSearcher with the shared pool at
// GOMAXPROCS workers. Graph queries are concurrency-safe by design (all
// per-query scratch is pooled), so queries fan out without locks.
func (h hnswSearcher) BatchRangeSearch(queries [][]float32, eps float64) [][]int {
	return h.BatchRangeSearchWorkers(queries, eps, 0, 0)
}

// BatchRangeSearchWorkers answers many range queries over a fixed worker
// pool, the native batch fast path the engines prefer.
func (h hnswSearcher) BatchRangeSearchWorkers(queries [][]float32, eps float64, workers, grain int) [][]int {
	out := make([][]int, len(queries))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = h.Graph.RangeSearch(queries[i], eps)
	})
	return out
}

var (
	_ RangeSearcher       = hnswSearcher{}
	_ KNNSearcher         = hnswSearcher{}
	_ batchWorkerSearcher = hnswSearcher{}
)
