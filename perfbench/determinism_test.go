package main

import (
	"context"
	"maps"
	"testing"
	"time"

	"lafdbscan"
)

// tiny is a scaled-down workload that runs the whole pipeline in seconds.
var tiny = workload{
	name: "tiny", generate: lafdbscan.NYTLike, total: 1000,
	eps: 0.55, tau: 5, lafBackend: "",
}

// TestInputsDependOnlyOnTheSeed pins that a seed reproduces its inputs
// byte for byte and that another seed changes them.
func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	for _, w := range append(workloads, tiny) {
		w.total = 1000
		a, err := makeInputs(w, 3, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 3, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(w, 4, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 3 generated different inputs twice", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 3 and 4 generated identical inputs", w.name)
		}
	}
}

// TestRunCountsRepeat pins that two runs of one seed do identical work:
// the same LAF query counts and ARI, the same model growth and the same
// journal record counts, with every check passing.
func TestRunCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	counts := func() map[string]any {
		r := newRunner(tiny, 5, 2*time.Second, t.TempDir(), false)
		if err := r.execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("%d of %d checks failed", r.failed, r.attempted)
		}
		out := map[string]any{"laf_ari": r.e2e["laf_ari"].Value, "laf_counts": r.notes["laf_counts"]}
		for _, name := range []string{"wal.appends", "wal.fsyncs", "wal.recovered_records",
			"lafdbscan.points_final", "core.skipped_ratio", "core.post_merges"} {
			out[name] = r.layer[name].Value
		}
		return out
	}
	a, b := counts(), counts()
	if !maps.EqualFunc(a, b, func(x, y any) bool { return equalJSONish(x, y) }) {
		t.Errorf("two runs of one seed differ:\n%v\n%v", a, b)
	}
	if a["wal.appends"] == 0.0 || a["wal.recovered_records"] == 0.0 {
		t.Errorf("the journal recorded nothing: %v", a)
	}
}

// equalJSONish compares the plain values and int maps the runner records.
func equalJSONish(x, y any) bool {
	if mx, ok := x.(map[string]int); ok {
		my, ok := y.(map[string]int)
		return ok && maps.Equal(mx, my)
	}
	return x == y
}
