package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner executes one workload run: set-up, the exact and LAF fits, the
// serving window and the restart, checking outputs as it goes.
type runner struct {
	w      workload
	seed   int64
	window time.Duration
	// work is a private directory inside the checkout for journals and
	// trace files.
	work string
	// rec is nil in untraced runs.
	rec *recorder

	in        *inputs
	attempted int
	failed    int
	e2e       map[string]metricValue
	layer     map[string]metricValue
	// notes are free-form facts (sample counts, scrapes) for the trace file.
	notes map[string]any
}

func newRunner(w workload, seed int64, window time.Duration, work string, traced bool) *runner {
	r := &runner{w: w, seed: seed, window: window, work: work,
		e2e: map[string]metricValue{}, layer: map[string]metricValue{}, notes: map[string]any{}}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

func (r *runner) traced() bool { return r.rec != nil }

// check records one attempted operation or output check.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// must records an operation whose failure ends the run.
func (r *runner) must(err error, what string) error {
	if !r.check(err == nil, "%s: %v", what, err) {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

func (r *runner) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metricValue{Value: v, Unit: unit}
}

func (r *runner) setLayer(name string, v float64, unit string) {
	r.layer[name] = metricValue{Value: v, Unit: unit}
}

// fitOptions are the knobs shared by every fit of the run.
func (r *runner) fitOptions(extra ...lafdbscan.FitOption) []lafdbscan.FitOption {
	return append([]lafdbscan.FitOption{
		lafdbscan.WithEps(r.w.eps), lafdbscan.WithTau(r.w.tau),
		lafdbscan.WithWorkers(lafdbscan.WorkersAuto), lafdbscan.WithSeed(r.seed),
	}, extra...)
}

// execute runs the whole pipeline. An error means the run could not go
// on; failed checks that let it go on are only counted.
func (r *runner) execute(ctx context.Context) error {
	in, err := makeInputs(r.w, r.seed, r.window)
	if err != nil {
		return r.must(err, "generating inputs")
	}
	r.in = in
	root := r.rec.begin("run", 0)
	defer r.rec.end(root)

	// Set-up, first part: estimator training.
	trainS := make([]float64, setupReps)
	var est lafdbscan.Estimator
	for i := range trainS {
		id := r.rec.begin("cardest.train", root)
		settle()
		start := time.Now()
		est, err = lafdbscan.TrainRMIEstimator(in.train, lafdbscan.EstimatorConfig{
			TargetSize: len(in.test), Seed: r.seed,
		})
		trainS[i] = time.Since(start).Seconds()
		r.rec.end(id)
		if err := r.must(err, "training the estimator"); err != nil {
			return err
		}
	}

	// The batch fits: exact DBSCAN, then LAF-DBSCAN on the workload's index.
	exact, dbscanWall, dbscanAlloc, err := r.fitRepeated(ctx, "fit.dbscan", lafdbscan.MethodDBSCAN, root)
	if err != nil {
		return err
	}
	laf, lafWall, lafAlloc, err := r.fitRepeated(ctx, "fit.laf", lafdbscan.MethodLAFDBSCAN, root,
		lafdbscan.WithEstimator(est), lafdbscan.WithIndexBackend(r.w.lafBackend))
	if err != nil {
		return err
	}
	fitAlloc := dbscanAlloc + lafAlloc
	ari, err := lafdbscan.ARI(exact.Labels(), laf.Labels())
	if err := r.must(err, "ARI of LAF against DBSCAN"); err != nil {
		return err
	}
	r.checkExact(exact)
	r.notes["dbscan"] = lafdbscan.Stats(exact.Labels())
	r.setE2E("dbscan_fit_s", dbscanWall.Seconds(), "s")
	r.setE2E("laf_fit_s", lafWall.Seconds(), "s")
	r.setE2E("laf_ari", ari, "ratio")
	r.setLayer("lafdbscan.fit_alloc_mb", fitAlloc, "MB")
	r.setLayer("cardest.train_s", median(trainS), "s")
	res := laf.Result()
	r.notes["laf_counts"] = map[string]int{"range_queries": res.RangeQueries,
		"skipped_queries": res.SkippedQueries, "post_merges": res.PostMerges}
	r.setLayer("core.skipped_ratio", float64(res.SkippedQueries)/float64(len(in.test)), "ratio")
	r.setLayer("core.post_merges", float64(res.PostMerges), "count")
	if r.traced() {
		if err := r.traceFits(ctx, est, exact, laf, ari, dbscanWall+lafWall, root); err != nil {
			return err
		}
	}

	// Set-up, second part, then the serving window and the restart.
	serveS, err := r.serveStage(ctx, exact, root)
	if err != nil {
		return err
	}
	setup := make([]float64, setupReps)
	for i := range setup {
		setup[i] = trainS[i] + serveS[i]
	}
	r.setE2E("setup_s", median(setup), "s")
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// fitRepeated fits the test set repeatedly (see minReps) and checks that
// every repetition reproduces the first bit for bit. It returns the first
// model, the median wall time and the MiB the first fit allocated.
func (r *runner) fitRepeated(ctx context.Context, name string, m lafdbscan.Method, root int,
	opts ...lafdbscan.FitOption) (*lafdbscan.Model, time.Duration, float64, error) {
	var (
		first *lafdbscan.Model
		alloc float64
		walls []float64
	)
	for begin := time.Now(); again(len(walls), begin); {
		id := r.rec.begin(name, root)
		settle()
		alloc0 := allocMB()
		start := time.Now()
		model, err := lafdbscan.Fit(ctx, r.in.test, m, r.fitOptions(opts...)...)
		walls = append(walls, time.Since(start).Seconds())
		r.rec.end(id)
		if err := r.must(err, name); err != nil {
			return nil, 0, 0, err
		}
		if first == nil {
			first, alloc = model, allocMB()-alloc0
		} else {
			r.check(sameFit(first, model), "%s did not repeat: repetition %d differs from the first", name, len(walls)-1)
		}
	}
	return first, time.Duration(median(walls) * float64(time.Second)), alloc, nil
}

// again reports whether a measurement repeated n times since begin runs
// once more: at least minReps times, then until repBudget has passed, and
// never more than maxReps times.
func again(n int, begin time.Time) bool {
	return n < minReps || (n < maxReps && time.Since(begin) < repBudget)
}

// settle collects garbage before a timed phase, so that a collection owed
// by the previous phase does not land inside the next one.
func settle() { runtime.GC() }

// checkExact recounts the neighborhoods of a sample of points by a direct
// scan: each Core flag must match the density criterion, and every core
// within eps of a sampled core must share its label.
func (r *runner) checkExact(exact *lafdbscan.Model) {
	pts := r.in.test
	core := exact.CoreMask()
	labels := exact.Labels()
	for _, i := range r.in.sample {
		count := 0
		sameLabel := true
		for j, p := range pts {
			if vecmath.CosineDistanceUnit(pts[i], p) < r.w.eps {
				count++
				if core[i] && core[j] && labels[j] != labels[i] {
					sameLabel = false
				}
			}
		}
		r.check((count >= r.w.tau) == core[i],
			"point %d has %d neighbors within eps but Core=%v", i, count, core[i])
		r.check(sameLabel, "core %d has a core neighbor in another cluster", i)
	}
}

// cosineSink keeps the kernel timing loop from being optimized away.
var cosineSink float64

// traceFits repeats both fits with timing decorators around the index and
// the estimator, checks that they reproduce the untraced fits exactly, and
// records the per-layer metrics of the batch stage.
func (r *runner) traceFits(ctx context.Context, est lafdbscan.Estimator, exact, laf *lafdbscan.Model,
	ari float64, untraced time.Duration, root int) error {
	pts := r.in.test
	n := len(pts)
	var waves atomic.Int64
	tctx := index.WithWaveProgress(ctx, func(int) { waves.Add(1) })
	base := lafdbscan.Params{Eps: r.w.eps, Tau: r.w.tau, Seed: r.seed}

	// Exact DBSCAN over a traced brute-force index.
	brute, _, err := base.NewIndex(pts, lafdbscan.MetricCosine)
	if err := r.must(err, "building the brute-force index"); err != nil {
		return err
	}
	ti := newTracedIndex(brute, r.rec)
	ti.parent = r.rec.begin("fit.dbscan.traced", root)
	start := time.Now()
	exactT, err := lafdbscan.Fit(tctx, pts, lafdbscan.MethodDBSCAN, r.fitOptions(lafdbscan.WithIndex(ti))...)
	dbscanTraced := time.Since(start)
	r.rec.end(ti.parent)
	if err := r.must(err, "traced DBSCAN fit"); err != nil {
		return err
	}
	r.check(sameFit(exact, exactT), "traced DBSCAN fit differs from the untraced one")
	dbQueries, dbNeighbors := ti.queries.Load(), ti.neighbors.Load()
	dbSearch := time.Duration(ti.searchNS.Load())
	r.setLayer("cluster.fold_cpu_s", time.Duration(ti.foldNS.Load()).Seconds(), "s")
	r.setLayer("cluster.waves", float64(waves.Load()), "count")

	// LAF-DBSCAN over a traced index of the workload's backend, built here
	// so its construction is timed on its own.
	lp := base
	lp.IndexBackend = r.w.lafBackend
	lafSpan := r.rec.begin("fit.laf.traced", root)
	buildSpan := r.rec.begin("index.build", lafSpan)
	alloc0 := allocMB()
	start = time.Now()
	lidx, backend, err := lp.NewIndex(pts, lafdbscan.MetricCosine)
	build := time.Since(start)
	buildAlloc := allocMB() - alloc0
	r.rec.end(buildSpan)
	if err := r.must(err, "building the LAF index"); err != nil {
		return err
	}
	tl := newTracedIndex(lidx, r.rec)
	tl.parent = lafSpan
	te := newTracedEstimator(est)
	start = time.Now()
	lafT, err := lafdbscan.Fit(tctx, pts, lafdbscan.MethodLAFDBSCAN, r.fitOptions(
		lafdbscan.WithEstimator(te), lafdbscan.WithIndex(tl))...)
	lafTraced := time.Since(start)
	r.rec.end(lafSpan)
	if err := r.must(err, "traced LAF-DBSCAN fit"); err != nil {
		return err
	}
	r.check(sameFit(laf, lafT), "LAF-DBSCAN did not repeat: traced fit differs from the untraced one")
	ariT, err := lafdbscan.ARI(exactT.Labels(), lafT.Labels())
	r.check(err == nil && ariT == ari, "LAF ARI did not repeat: %v then %v (%v)", ari, ariT, err)
	if te.calls.Load() > 0 {
		r.rec.add("cardest.estimate_phase", lafSpan,
			time.Unix(0, te.first.Load()), time.Unix(0, te.last.Load()))
	}

	lafSearch := time.Duration(tl.searchNS.Load())
	queries := dbQueries + tl.queries.Load()
	distEvals := float64(dbQueries) * float64(n)
	if backend == index.BackendBrute {
		distEvals += float64(tl.queries.Load()) * float64(n)
	}
	r.setLayer("vecmath.cosine_ns", cosineNS(pts), "ns")
	r.setLayer("vecmath.dist_evals", distEvals, "count")
	r.setLayer("index.build_s", build.Seconds(), "s")
	r.setLayer("index.build_alloc_mb", buildAlloc, "MB")
	r.setLayer("index.recall", recall(lidx, brute, pts, r.in.sample, r.w.eps), "ratio")
	r.setLayer("index.range_queries", float64(queries), "count")
	r.setLayer("index.search_wall_s", (dbSearch + lafSearch).Seconds(), "s")
	r.setLayer("index.neighbors_mean", float64(dbNeighbors+tl.neighbors.Load())/float64(max(queries, 1)), "count")
	calls := te.calls.Load()
	r.setLayer("cardest.estimates", float64(calls), "count")
	r.setLayer("cardest.estimate_us", float64(te.ns.Load())/1e3/float64(max(calls, 1)), "us")
	r.setLayer("cardest.estimate_wall_s", te.wall().Seconds(), "s")
	r.setLayer("core.rest_s", (lafTraced - te.wall() - lafSearch).Seconds(), "s")
	traced := dbscanTraced + build + lafTraced
	r.setLayer("bench.trace_overhead_ratio", traced.Seconds()/untraced.Seconds()-1, "ratio")
	r.notes["index_backend"] = backend
	return nil
}

// sameFit reports whether two fits produced bit-identical labels, forests,
// core flags and query counts.
func sameFit(a, b *lafdbscan.Model) bool {
	ra, rb := a.Result(), b.Result()
	return slices.Equal(a.Labels(), b.Labels()) && slices.Equal(a.Forest(), b.Forest()) &&
		slices.Equal(a.CoreMask(), b.CoreMask()) &&
		ra.RangeQueries == rb.RangeQueries && ra.SkippedQueries == rb.SkippedQueries &&
		ra.PostMerges == rb.PostMerges
}

// cosineNS times direct calls of the unit-vector cosine kernel on the
// workload's own vectors, in the access pattern of a brute-force range
// query: one query against every point in order.
func cosineNS(pts [][]float32) float64 {
	const minCalls = 1 << 18
	n := len(pts)
	queries := (minCalls + n - 1) / n
	sum := 0.0
	start := time.Now()
	for k := 0; k < queries; k++ {
		q := pts[(k*7919)%n]
		for _, p := range pts {
			sum += vecmath.CosineDistanceUnit(q, p)
		}
	}
	elapsed := time.Since(start)
	cosineSink = sum
	return float64(elapsed.Nanoseconds()) / float64(queries*n)
}

// recall is the share of exact eps-neighbors that idx finds, over the
// sampled queries.
func recall(idx, exact lafdbscan.RangeIndex, pts [][]float32, sample []int, eps float64) float64 {
	found, want := 0, 0
	for _, i := range sample {
		truth := exact.RangeSearch(pts[i], eps)
		got := map[int]bool{}
		for _, j := range idx.RangeSearch(pts[i], eps) {
			got[j] = true
		}
		for _, j := range truth {
			if got[j] {
				found++
			}
		}
		want += len(truth)
	}
	if want == 0 {
		return 1
	}
	return float64(found) / float64(want)
}

// normalized returns copies of vectors normalized the way the server
// normalizes inline vectors, so library and server see identical bits.
func normalized(vectors [][]float32) [][]float32 {
	out := make([][]float32, len(vectors))
	for i, v := range vectors {
		out[i] = slices.Clone(v)
		vecmath.Normalize(out[i])
	}
	return out
}

// serveStage performs the serving set-up setupReps times (returning each
// duration), then runs the window on the last server, restarts it on the
// same journal and measures recovery.
func (r *runner) serveStage(ctx context.Context, exact *lafdbscan.Model, root int) ([]float64, error) {
	var buf bytes.Buffer
	if err := r.must(exact.Save(&buf), "saving the DBSCAN model"); err != nil {
		return nil, err
	}
	want, err := exact.Predict(ctx, normalized(r.in.probe))
	if err := r.must(err, "library predict of the probe set"); err != nil {
		return nil, err
	}

	serveS := make([]float64, setupReps)
	var (
		srv     *server
		c       *client
		modelID string
		walDir  string
	)
	defer func() {
		if c != nil {
			c.close()
		}
		if srv != nil {
			srv.close()
		}
	}()
	for i := range serveS {
		if srv != nil {
			c.close()
			srv.close()
			srv, c = nil, nil
			if err := os.RemoveAll(walDir); err != nil {
				return nil, r.must(err, "removing a set-up journal")
			}
		}
		walDir = filepath.Join(r.work, "wal-"+strconv.Itoa(i))
		span := r.rec.begin("serve.setup", root)
		start := time.Now()
		srv, err = startServer(walDir)
		if err := r.must(err, "booting the server"); err != nil {
			return nil, err
		}
		c = newClient(srv.base)
		var loaded struct {
			Model modelInfo `json:"model"`
		}
		_, err = c.do("POST", "/v1/models/load", buf.Bytes(), &loaded)
		if err := r.must(err, "uploading the model"); err != nil {
			return nil, err
		}
		modelID = loaded.Model.ID
		setupTime := time.Since(start)

		// Untimed: the served model must answer the probe set exactly as
		// the library model does.
		got, err := c.predict(modelID, r.in.probe)
		r.check(err == nil && slices.Equal(got, want), "served probe labels differ from the library's (%v)", err)

		start = time.Now()
		var st jobStatus
		_, err = c.do("POST", "/v1/models/"+modelID+"/insert", vectorsBody(r.in.warmup), &st)
		if err == nil {
			st, err = c.waitJob(st.ID, 5*time.Minute)
		}
		setupTime += time.Since(start)
		r.rec.end(span)
		if err := r.must(err, "warm-up insert"); err != nil {
			return nil, err
		}
		serveS[i] = setupTime.Seconds()
		r.setLayer("lafdbscan.overlay_build_s", st.Finished.Sub(*st.Started).Seconds(), "s")
	}

	if err := r.serveWindow(c, modelID, root); err != nil {
		return nil, err
	}

	// The answers to remember across the restart.
	before, err := c.predict(modelID, r.in.probe)
	if err := r.must(err, "probe predict before the restart"); err != nil {
		return nil, err
	}
	info, err := c.model(modelID)
	if err := r.must(err, "reading the model before the restart"); err != nil {
		return nil, err
	}
	inserted := len(r.in.warmup) + r.in.windowInserts()
	r.check(info.Points == len(r.in.test)+inserted, "model holds %d points, want %d", info.Points, len(r.in.test)+inserted)
	r.setLayer("lafdbscan.points_final", float64(info.Points), "count")
	c.close()
	srv.close()
	srv, c = nil, nil

	// Recovery: construct a new server on the same journal and time it to
	// the first correct predict. Recovery writes nothing, so every restart
	// replays the same journal.
	var recoveries []float64
	for begin := time.Now(); again(len(recoveries), begin); {
		span := r.rec.begin("serve.recovery", root)
		settle()
		start := time.Now()
		srv, err = startServer(walDir)
		if err := r.must(err, "rebooting the server"); err != nil {
			return nil, err
		}
		c = newClient(srv.base)
		after, err := c.predict(modelID, r.in.probe)
		recoveries = append(recoveries, time.Since(start).Seconds())
		r.rec.end(span)
		if err := r.must(err, "probe predict after the restart"); err != nil {
			return nil, err
		}
		r.check(slices.Equal(before, after), "recovered server answers the probe set differently")
		rinfo, err := c.model(modelID)
		r.check(err == nil && rinfo.Points == info.Points,
			"recovered model holds %d points, want %d (%v)", rinfo.Points, info.Points, err)
		text, err := c.text("/metrics")
		if err := r.must(err, "scraping the rebooted server"); err != nil {
			return nil, err
		}
		r.setLayer("wal.recovered_records", parseProm(text).sum("laf_wal_recovered_records_total", ""), "count")
		c.close()
		srv.close()
		srv, c = nil, nil
	}
	r.setE2E("recovery_s", median(recoveries), "s")
	return serveS, nil
}

// requestCounts is the window's accounting for one operation. A refused
// request (429) is not counted as failed; an insert that was accepted but
// whose job did not end done is.
type requestCounts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
}

// serveWindow runs the open-loop schedule against the model and records
// the serving metrics.
func (r *runner) serveWindow(c *client, modelID string, root int) error {
	ops := r.in.schedule
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		bodies[i] = vectorsBody(o.vectors)
	}
	scrape := func(when string) (promText, error) {
		text, err := c.text("/metrics")
		if err != nil {
			return nil, err
		}
		if r.traced() {
			r.notes["metrics_"+when] = text
			traces, err := c.text("/v1/traces")
			if err != nil {
				return nil, err
			}
			r.notes["traces_"+when] = traces
		}
		return parseProm(text), nil
	}
	pre, err := scrape("before")
	if err := r.must(err, "scraping before the window"); err != nil {
		return err
	}
	settle()
	span := r.rec.begin("serve.window", root)
	start := time.Now()
	samples := openLoop(c, modelID, ops, bodies, r.rec, span)
	elapsed := time.Since(start)
	r.rec.end(span)

	var predictLat, insertLat, lag, clientPredict, queue, run []float64
	var predicts, inserts requestCounts
	for i, s := range samples {
		n := &predicts
		if ops[i].insert {
			n = &inserts
		}
		n.Sent++
		lag = append(lag, ms(s.sent.Sub(s.due)))
		if s.status == 429 {
			n.Refused++
		} else if s.err != nil {
			n.Failed++
		}
		if !r.check(s.err == nil, "request %d: %v", i, s.err) {
			continue
		}
		if !ops[i].insert {
			n.Succeeded++
			predictLat = append(predictLat, ms(s.done.Sub(s.due)))
			clientPredict = append(clientPredict, ms(s.done.Sub(s.sent)))
			continue
		}
		// Drain: read the job's timestamps once it has finished.
		st, err := c.waitJob(s.jobID, 5*time.Minute)
		if !r.check(err == nil, "insert job %s: %v", s.jobID, err) {
			n.Failed++
			continue
		}
		n.Succeeded++
		insertLat = append(insertLat, ms(st.Finished.Sub(s.due)))
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		run = append(run, ms(st.Finished.Sub(*st.Started)))
		r.rec.add("server.insert_job", s.spanID, *st.Started, *st.Finished)
	}
	post, err := scrape("after")
	if err := r.must(err, "scraping after the window"); err != nil {
		return err
	}

	r.notes["requests"] = map[string]requestCounts{"predict": predicts, "insert": inserts}
	r.notes["window_s"] = elapsed.Seconds()
	r.notes["predict_ms"] = map[string]float64{"p90": quantile(predictLat, 0.90),
		"p95": quantile(predictLat, 0.95), "max": quantile(predictLat, 1)}
	r.notes["insert_ms"] = map[string]float64{"p95": quantile(insertLat, 0.95),
		"p99": quantile(insertLat, 0.99), "max": quantile(insertLat, 1)}
	if len(predictLat) < 1000 || len(insertLat) < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d predicts and %d inserts: fewer than ten samples lie beyond p99 and p90\n",
			len(predictLat), len(insertLat))
	}
	r.setE2E("predict_p50_ms", median(predictLat), "ms")
	r.setLayer("predict_p99_ms", quantile(predictLat, 0.99), "ms")
	r.setLayer("insert_p50_ms", median(insertLat), "ms")
	r.setLayer("insert_p90_ms", quantile(insertLat, 0.90), "ms")
	r.setE2E("insert_run_p50_ms", median(run), "ms")

	diff := func(name, match string) float64 { return post.sum(name, match) - pre.sum(name, match) }
	const route = `endpoint="POST /v1/models/{id}/predict"`
	serverMS := 1000 * diff("laf_http_request_duration_seconds_sum", route) /
		max(diff("laf_http_request_duration_seconds_count", route), 1)
	r.setLayer("serve.predict_server_ms", serverMS, "ms")
	r.setLayer("serve.predict_transport_ms", mean(clientPredict)-serverMS, "ms")
	r.setLayer("serve.insert_queue_ms", mean(queue), "ms")
	r.setLayer("serve.insert_run_ms", mean(run), "ms")
	r.setLayer("serve.refused", float64(predicts.Refused+inserts.Refused), "count")
	inserted := r.in.windowInserts()
	r.setLayer("wal.appends", diff("laf_wal_appends_total", ""), "count")
	r.setLayer("wal.fsyncs", diff("laf_wal_fsyncs_total", ""), "count")
	r.setLayer("wal.fsync_ms", 1000*diff("laf_wal_fsync_seconds_sum", "")/max(diff("laf_wal_fsync_seconds_count", ""), 1), "ms")
	r.setLayer("wal.bytes_per_point", diff("laf_wal_appended_bytes_total", "")/float64(max(inserted, 1)), "B")
	r.setLayer("bench.sched_lag_p99_ms", quantile(lag, 0.99), "ms")
	return nil
}
