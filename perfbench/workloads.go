package main

import (
	"fmt"
	"time"

	"lafdbscan"
)

// workload is one named input set of the benchmark. Every workload runs
// the same pipeline (see run.go), so every end-to-end metric is measured on
// every workload; the workloads differ in the data's shape, the index
// behind the LAF fit and the serving rates, which decides which layer
// dominates the run.
type workload struct {
	name string
	// generate draws the whole point set; a 4:1 split keeps total/5 points
	// to cluster and serve, and the rest feeds estimator training and the
	// out-of-sample request vectors.
	generate func(n int, seed int64) *lafdbscan.Dataset
	total    int
	eps      float64
	tau      int
	// lafBackend is Params.IndexBackend of the LAF fit ("" keeps the exact
	// brute-force scan, lafdbscan.IndexBackendAuto lands on HNSW). The
	// exact DBSCAN reference always runs on brute force.
	lafBackend string
}

const (
	// Each fit and the restart are repeated at least minReps times and
	// then until repBudget has passed, but at most maxReps times; their
	// metrics report the median. On a shared machine the CPU speed shifts
	// every few seconds, so the median of repetitions spread over several
	// seconds is far steadier than that of a fixed count of fast ones.
	minReps   = 3
	maxReps   = 15
	repBudget = 6 * time.Second
	// predictPerSec and insertPerSec are the open-loop request rates of the
	// serving window. They sit far below the predict capacity measured on a
	// 2-CPU machine, so a predict is in flight well under half the time
	// and most inserts find the model lock free, while a 25 s window
	// still holds 1000 predicts and 125 inserts (ten beyond p99, twelve
	// beyond p90).
	predictPerSec = 40
	insertPerSec  = 5
	// insertSize is the number of vectors per insert, small enough that
	// the model grows by less than a fifth over a 25 s window.
	insertSize = 3
	// predictSize is the number of vectors in one predict request.
	predictSize = 8
	// probeSize is the fixed probe set checked against the library and
	// across the restart.
	probeSize = 64
	// checkSample is the number of points whose core flags are recounted
	// by a direct brute-force scan.
	checkSample = 64
	// setupReps is the number of times a run performs its set-up;
	// setup_s reports the median.
	setupReps = 2
	// walSync is the journal fsync policy of the served model.
	walSync = "always"
)

// workloads lists every workload by name, in the order BENCHMARK.json
// names them.
var workloads = []workload{
	{
		// LAF over the HNSW graph: the graph build dominates the LAF fit.
		// (0.5, 5) is from the paper's parameter grid. At this size it
		// gives 30 to 60 clusters and an ARI that barely moves between
		// seeds; (0.55, 5) and (0.6, 5) merge nearly every point into one
		// or two clusters, and (0.5, 3) leaves one cluster holding most
		// points, which makes the ARI swing from seed to seed.
		name: "batch-glove200-hnsw", generate: lafdbscan.GloVeLike, total: 10000,
		eps: 0.5, tau: 5, lafBackend: lafdbscan.IndexBackendAuto,
	},
	{
		// Cheap 256-d fits on the exact scan leave the serving window —
		// predicts and journaled inserts sharing the model lock — to
		// dominate the run.
		name: "serve-nyt256-mixed", generate: lafdbscan.NYTLike, total: 15000,
		eps: 0.55, tau: 5, lafBackend: "",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
