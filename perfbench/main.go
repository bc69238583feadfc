// Command perfbench is the repository benchmark. It runs one named
// workload of the LAF-DBSCAN system end to end — estimator training, the
// exact and LAF fits, a served model under an open-loop mix of predicts and
// journaled inserts, and a restart that recovers the model from its journal
// — from a seed, checks the outputs, and prints one JSON object as the last
// line of standard output.
//
//	go run . --workload serve-nyt256-mixed --seed 1 --seconds 25 --trace 0
//
// With --trace 1 the same run also repeats the fits behind timing
// decorators, records spans, prints the per-layer metrics instead of the
// end-to-end ones, and writes the spans to a trace file. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// perLayer lists the metrics a traced run reports, with their units.
var perLayer = [][2]string{
	{"vecmath.cosine_ns", "ns"}, {"vecmath.dist_evals", "count"},
	{"index.build_s", "s"}, {"index.build_alloc_mb", "MB"}, {"index.recall", "ratio"},
	{"index.range_queries", "count"}, {"index.search_wall_s", "s"}, {"index.neighbors_mean", "count"},
	{"cardest.train_s", "s"}, {"cardest.estimates", "count"}, {"cardest.estimate_us", "us"},
	{"cardest.estimate_wall_s", "s"},
	{"core.skipped_ratio", "ratio"}, {"core.post_merges", "count"}, {"core.rest_s", "s"},
	{"cluster.fold_cpu_s", "s"}, {"cluster.waves", "count"},
	{"lafdbscan.fit_alloc_mb", "MB"}, {"lafdbscan.overlay_build_s", "s"}, {"lafdbscan.points_final", "count"},
	{"serve.predict_server_ms", "ms"}, {"serve.predict_transport_ms", "ms"}, {"serve.insert_queue_ms", "ms"},
	{"serve.insert_run_ms", "ms"}, {"serve.refused", "count"},
	{"wal.appends", "count"}, {"wal.fsyncs", "count"}, {"wal.fsync_ms", "ms"},
	{"wal.bytes_per_point", "B"}, {"wal.recovered_records", "count"},
	{"predict_p99_ms", "ms"}, {"insert_p50_ms", "ms"}, {"insert_p90_ms", "ms"},
	{"bench.sched_lag_p99_ms", "ms"}, {"bench.trace_overhead_ratio", "ratio"}, {"bench.error_ratio", "ratio"},
}

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []string{
	"setup_s", "dbscan_fit_s", "laf_fit_s", "laf_ari",
	"predict_p50_ms", "insert_run_p50_ms", "recovery_s", "peak_rss_mb",
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "length of the serving window in seconds")
	trace := flag.Int("trace", 0, "1 repeats the fits behind timing decorators and reports per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for journals and trace files")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	env := describeEnvironment(dir)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d environment %s\n", w.name, *seed, envJSON)

	r := newRunner(w, *seed, time.Duration(*seconds)*time.Second, dir, *trace == 1)
	if err := r.execute(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	r.setLayer("bench.error_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")

	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metricValue{}}
	if *trace == 1 {
		for _, m := range perLayer {
			v, ok := r.layer[m[0]]
			if !ok {
				// A layer the run never reached did no work.
				v = metricValue{Unit: m[1]}
			}
			res.Metrics[m[0]] = v
		}
		path := filepath.Join(*work, "traces", w.name+"-seed"+strconv.FormatInt(*seed, 10)+".json")
		if err := writeTrace(path, w.name, *seed, env, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing the trace:", err)
			res.Correct = false
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
		}
	} else {
		for _, m := range endToEnd {
			if v, ok := r.e2e[m]; ok {
				res.Metrics[m] = v
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: requests %+v, predict %v, insert %v; %d of %d operations and checks failed\n",
		r.notes["requests"], r.notes["predict_ms"], r.notes["insert_ms"], r.failed, r.attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace writes a traced run's spans, metrics and scrapes as JSON.
func writeTrace(path, workload string, seed int64, env environment, r *runner) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload":    workload,
		"seed":        seed,
		"environment": env,
		"end_to_end":  r.e2e,
		"per_layer":   r.layer,
		"notes":       r.notes,
		"spans":       r.rec.snapshot(),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
