package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"lafdbscan"
	"lafdbscan/internal/index"
)

// TestDecoratorsAreTransparent pins that a Fit over the timing decorators
// runs the same code path as a plain Fit: labels, forest, core flags and
// query counts are bit-identical, on the exact scan and on the HNSW graph,
// for the parallel and the sequential engines.
func TestDecoratorsAreTransparent(t *testing.T) {
	pts := lafdbscan.GloVeLike(600, 7).Vectors
	est := lafdbscan.SamplingEstimator(pts, 200, 7)
	ctx := context.Background()
	for _, backend := range []string{"", lafdbscan.IndexBackendAuto} {
		for _, workers := range []int{lafdbscan.WorkersAuto, 0} {
			for _, method := range []lafdbscan.Method{lafdbscan.MethodDBSCAN, lafdbscan.MethodLAFDBSCAN} {
				common := func(extra ...lafdbscan.FitOption) []lafdbscan.FitOption {
					return append([]lafdbscan.FitOption{
						lafdbscan.WithEps(0.5), lafdbscan.WithTau(3), lafdbscan.WithSeed(7),
						lafdbscan.WithWorkers(workers),
					}, extra...)
				}
				plainOpts := common(lafdbscan.WithIndexBackend(backend))
				tracedOpts := common()
				var te *tracedEstimator
				if method == lafdbscan.MethodLAFDBSCAN {
					te = newTracedEstimator(est)
					plainOpts = append(plainOpts, lafdbscan.WithEstimator(est))
					tracedOpts = append(tracedOpts, lafdbscan.WithEstimator(te))
				}
				plain, err := lafdbscan.Fit(ctx, pts, method, plainOpts...)
				if err != nil {
					t.Fatal(err)
				}
				p := lafdbscan.Params{Eps: 0.5, Tau: 3, Seed: 7, IndexBackend: backend}
				idx, _, err := p.NewIndex(pts, lafdbscan.MetricCosine)
				if err != nil {
					t.Fatal(err)
				}
				ti := newTracedIndex(idx, newRecorder())
				var waves atomic.Int64
				tctx := index.WithWaveProgress(ctx, func(int) { waves.Add(1) })
				traced, err := lafdbscan.Fit(tctx, pts, method, append(tracedOpts, lafdbscan.WithIndex(ti))...)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%q/workers=%d", method, backend, workers)
				if !sameFit(plain, traced) {
					t.Errorf("%s: traced fit differs from the plain fit", name)
				}
				if ti.queries.Load() != int64(traced.Result().RangeQueries) {
					t.Errorf("%s: decorator counted %d range queries, fit reports %d",
						name, ti.queries.Load(), traced.Result().RangeQueries)
				}
				if te != nil && te.calls.Load() == 0 {
					t.Errorf("%s: estimator decorator saw no calls", name)
				}
				if workers != 0 && waves.Load() == 0 {
					t.Errorf("%s: no wave progress reported", name)
				}
			}
		}
	}
}
