package index

import "context"

// This file is the streaming counterpart of batch.go: instead of
// materializing one result slice per query — O(Σ|N(q)|) live at once —
// BatchRangeSearchFunc executes queries in bounded waves over the worker
// pool and hands each result to a callback while the wave is in flight.
// The caller folds what it needs out of each list (core flags, union-find
// links, small stubs) and the list itself is recycled or collected, so the
// live set is O(WaveSize·avg|N|) regardless of dataset size. This is the
// substrate of the memory-bounded parallel clustering engines.
//
// The wave barrier is also the engines' cancellation and progress point:
// the context is consulted once per wave — never inside the per-query hot
// loop — so cancellation costs nothing while queries run and aborts within
// one wave, and an optional WithWaveProgress hook observes each completed
// wave (the job engine in internal/serve reports poll-able progress
// through it).

// DefaultWaveSize is the number of queries per wave when the caller passes
// wave <= 0. Large enough that the per-wave pool fork/join is amortized
// over thousands of distance computations, small enough that a wave's
// in-flight neighbor lists stay far below the O(Σ|N(q)|) of materializing
// every result at once.
const DefaultWaveSize = 1024

// ResolveWaveSize normalizes a wave-size knob: values <= 0 select
// DefaultWaveSize, everything else is returned unchanged.
func ResolveWaveSize(wave int) int {
	if wave <= 0 {
		return DefaultWaveSize
	}
	return wave
}

// waveProgressKey carries the WithWaveProgress hook through a context.
type waveProgressKey struct{}

// WithWaveProgress returns a context that makes the wave engines report
// progress: fn is invoked after every completed wave with the number of
// queries that wave answered. fn is called from the goroutine driving the
// waves (never concurrently with itself within one batch call), but a
// clustering run may issue several batch calls, so fn should accumulate
// atomically when shared across runs.
func WithWaveProgress(ctx context.Context, fn func(queries int)) context.Context {
	return context.WithValue(ctx, waveProgressKey{}, fn)
}

// waveProgress extracts the WithWaveProgress hook, or nil.
func waveProgress(ctx context.Context) func(int) {
	fn, _ := ctx.Value(waveProgressKey{}).(func(int))
	return fn
}

// batchFuncWorkerSearcher is the optional native streaming path an index
// can provide; BruteForce uses it to recycle one result buffer per wave
// slot instead of allocating a fresh slice per query. The HNSW graph has
// none: its queries allocate per query either way, so the generic wave loop
// below serves it.
type batchFuncWorkerSearcher interface {
	BatchRangeSearchFuncWorkers(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error
}

// BatchRangeSearchFunc answers queries[i] in waves of at most wave queries
// over a worker pool, invoking fn(i, ids) once per query with the ids of
// points within eps of queries[i]. Waves run back to back with a barrier
// between them, so at most one wave's results are in flight at a time.
//
// ctx is checked at each wave barrier only: a cancellation arriving
// mid-wave lets the in-flight wave finish (every fn of that wave still
// runs) and stops before the next one, returning ctx.Err(). The hot path
// never touches the context, so an un-cancelled run costs exactly the same
// as before the context existed. A nil fn result set is never produced; on
// a nil error every query's fn has run.
//
// fn is invoked concurrently from pool workers (on distinct i) and must be
// safe for that; ids is only valid for the duration of the call and may be
// recycled afterwards — callers that need to retain ids must copy them.
// workers <= 0 selects GOMAXPROCS, grain <= 0 a default chunk size, and
// wave <= 0 DefaultWaveSize. Results are identical to per-query RangeSearch
// calls; only the allocation profile differs from BatchRangeSearch.
func BatchRangeSearchFunc(ctx context.Context, s RangeSearcher, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	if b, ok := s.(batchFuncWorkerSearcher); ok {
		return b.BatchRangeSearchFuncWorkers(ctx, queries, eps, workers, grain, wave, fn)
	}
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	for base := 0; base < len(queries); base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, len(queries))
		lo := base
		ForEach(hi-lo, workers, grain, func(k int) {
			fn(lo+k, s.RangeSearch(queries[lo+k], eps))
		})
		if progress != nil {
			progress(hi - lo)
		}
	}
	return nil
}

// BatchRangeSearchFuncWorkers is BruteForce's native streaming path: each
// wave slot owns one result buffer that is reset and reused wave after
// wave, so a full sweep over n queries allocates O(wave) buffers total
// instead of n. Within a wave a slot is touched by exactly one worker, and
// the pool barrier between waves orders the reuse. The context carries the
// same per-wave cancellation and progress semantics as BatchRangeSearchFunc.
func (b *BruteForce) BatchRangeSearchFuncWorkers(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	n := len(queries)
	if n == 0 {
		return ctx.Err()
	}
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	bufs := make([][]int, min(wave, n))
	for base := 0; base < n; base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, n)
		lo := base
		b.queries.Add(int64(hi - lo))
		ForEach(hi-lo, workers, grain, func(k int) {
			q := queries[lo+k]
			ids := bufs[k][:0]
			for j, p := range b.points {
				if b.dist(q, p) < eps {
					ids = append(ids, j)
				}
			}
			bufs[k] = ids
			fn(lo+k, ids)
		})
		if progress != nil {
			progress(hi - lo)
		}
	}
	return nil
}
