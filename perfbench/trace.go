package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
)

// span is one traced interval: a call into a layer, made from the
// benchmark's own code.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced code paths pay one nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.t0).Nanoseconds()) / 1e6
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: r.since(start), End: r.since(end)})
	return len(r.spans)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracedIndex is a timing decorator around a range index. It forwards the
// optional native batch paths through the index package's dispatchers, so a
// Fit over the decorator runs exactly the code path it runs over the bare
// index, and it wraps the per-query callback of the streaming path to time
// the engine's fold separately from the search.
type tracedIndex struct {
	inner lafdbscan.RangeIndex
	rec   *recorder
	// parent is the span batch calls nest under; set between fits.
	parent int

	queries   atomic.Int64
	neighbors atomic.Int64
	searchNS  atomic.Int64
	foldNS    atomic.Int64
}

func newTracedIndex(inner lafdbscan.RangeIndex, rec *recorder) *tracedIndex {
	return &tracedIndex{inner: inner, rec: rec}
}

func (t *tracedIndex) RangeSearch(q []float32, eps float64) []int {
	ids := t.inner.RangeSearch(q, eps)
	t.queries.Add(1)
	t.neighbors.Add(int64(len(ids)))
	return ids
}

func (t *tracedIndex) RangeCount(q []float32, eps float64) int {
	n := t.inner.RangeCount(q, eps)
	t.queries.Add(1)
	t.neighbors.Add(int64(n))
	return n
}

func (t *tracedIndex) BatchRangeSearch(queries [][]float32, eps float64) [][]int {
	id := t.rec.begin("index.batch_search", t.parent)
	start := time.Now()
	out := t.inner.BatchRangeSearch(queries, eps)
	t.countBatch(out, start)
	t.rec.end(id)
	return out
}

// BatchRangeSearchWorkers is the optional native batch path; it forwards
// through index.BatchRangeSearch, which picks the inner index's own native
// path when it has one.
func (t *tracedIndex) BatchRangeSearchWorkers(queries [][]float32, eps float64, workers, grain int) [][]int {
	id := t.rec.begin("index.batch_search", t.parent)
	start := time.Now()
	out := index.BatchRangeSearch(t.inner, queries, eps, workers, grain)
	t.countBatch(out, start)
	t.rec.end(id)
	return out
}

func (t *tracedIndex) countBatch(out [][]int, start time.Time) {
	t.searchNS.Add(int64(time.Since(start)))
	t.queries.Add(int64(len(out)))
	total := 0
	for _, ids := range out {
		total += len(ids)
	}
	t.neighbors.Add(int64(total))
}

// BatchRangeSearchFuncWorkers is the optional native streaming path; it
// forwards through index.BatchRangeSearchFunc and times each callback.
func (t *tracedIndex) BatchRangeSearchFuncWorkers(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	id := t.rec.begin("index.wave_search", t.parent)
	start := time.Now()
	err := index.BatchRangeSearchFunc(ctx, t.inner, queries, eps, workers, grain, wave,
		func(i int, ids []int) {
			t0 := time.Now()
			fn(i, ids)
			t.foldNS.Add(int64(time.Since(t0)))
			t.neighbors.Add(int64(len(ids)))
		})
	t.searchNS.Add(int64(time.Since(start)))
	t.queries.Add(int64(len(queries)))
	t.rec.end(id)
	return err
}

func (t *tracedIndex) Len() int { return t.inner.Len() }

// tracedEstimator is a timing decorator around a cardinality estimator. It
// times every call and keeps the first start and last end, whose distance
// is the wall time of the estimate phase.
type tracedEstimator struct {
	inner lafdbscan.Estimator

	calls atomic.Int64
	ns    atomic.Int64
	first atomic.Int64 // unix ns of the earliest call start
	last  atomic.Int64 // unix ns of the latest call end
}

func newTracedEstimator(inner lafdbscan.Estimator) *tracedEstimator {
	return &tracedEstimator{inner: inner}
}

func (e *tracedEstimator) Estimate(q []float32, eps float64) float64 {
	start := time.Now()
	v := e.inner.Estimate(q, eps)
	end := time.Now()
	e.calls.Add(1)
	e.ns.Add(int64(end.Sub(start)))
	for s := start.UnixNano(); ; {
		cur := e.first.Load()
		if (cur != 0 && cur <= s) || e.first.CompareAndSwap(cur, s) {
			break
		}
	}
	for f := end.UnixNano(); ; {
		cur := e.last.Load()
		if cur >= f || e.last.CompareAndSwap(cur, f) {
			break
		}
	}
	return v
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

// wall is the time from the first call's start to the last call's end.
func (e *tracedEstimator) wall() time.Duration {
	if e.calls.Load() == 0 {
		return 0
	}
	return time.Duration(e.last.Load() - e.first.Load())
}
