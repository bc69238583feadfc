package lafdbscan

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestIndexBackendResolution pins the three resolution modes of the backend
// knob: empty keeps the exact default (brute force, bit-identical labels),
// IndexBackendAuto selects the approximate chain (HNSW), and an explicit
// name passes through capability-checked.
func TestIndexBackendResolution(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		metric  DistanceMetric
		want    string
		wantErr string
	}{
		{"empty is exact brute", "", MetricCosine, "brute", ""},
		{"auto is hnsw", IndexBackendAuto, MetricCosine, "hnsw", ""},
		{"auto under euclidean is hnsw", IndexBackendAuto, MetricEuclidean, "hnsw", ""},
		{"explicit passthrough", "hnsw", MetricEuclidean, "hnsw", ""},
		{"unknown name", "bogus", MetricCosine, "", "unknown index backend"},
		{"unregistered baseline tree", "covertree", MetricCosine, "", "unknown index backend"},
		{"unregistered grid", "grid", MetricEuclidean, "", "unknown index backend"},
	}
	for _, c := range cases {
		got, err := ResolveIndexBackend(c.backend, c.metric)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: resolved %q, want %q", c.name, got, c.want)
		}
	}

	names := IndexBackends()
	if !slices.Equal(names, []string{"brute", "hnsw"}) {
		t.Fatalf("IndexBackends() = %v, want [brute hnsw]", names)
	}
	for _, name := range names {
		caps, ok := LookupIndexBackend(name)
		if !ok {
			t.Errorf("registered backend %q not found by LookupIndexBackend", name)
		}
		if !caps.Cosine && !caps.Euclidean {
			t.Errorf("backend %q supports no metric", name)
		}
	}
	if _, ok := LookupIndexBackend("bogus"); ok {
		t.Error("LookupIndexBackend found a backend that does not exist")
	}
}

// TestDBSCANOverHNSWApproximation is the clustering-quality acceptance
// gate of the approximate index: DBSCAN over HNSW neighborhoods at the
// default EfSearch must reproduce the exact clustering to ARI >= 0.99.
func TestDBSCANOverHNSWApproximation(t *testing.T) {
	d := GenerateMixture("hnsw-ari", MixtureConfig{
		N: 1200, Dim: 32, Clusters: 8, MinSpread: 0.12, MaxSpread: 0.25,
		NoiseFrac: 0.15, Seed: 17,
	})
	exactParams := Params{Eps: 0.4, Tau: 5}
	exact, err := DBSCAN(d.Vectors, exactParams)
	if err != nil {
		t.Fatal(err)
	}
	approxParams := Params{Eps: 0.4, Tau: 5, IndexBackend: "hnsw", Seed: 3}
	approx, err := DBSCAN(d.Vectors, approxParams)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(exact.Labels, approx.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("DBSCAN over HNSW: ARI = %.4f vs exact, want >= 0.99", ari)
	}

	// Determinism: the same seed reruns to identical labels.
	again, err := DBSCAN(d.Vectors, approxParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := range approx.Labels {
		if approx.Labels[i] != again.Labels[i] {
			t.Fatalf("HNSW-backed DBSCAN is not deterministic at point %d", i)
		}
	}
}

// TestHNSWRangeRecallDefaultKnob pins the recall floor the operations guide
// promises: at the default EfSearch, HNSW range queries return >= 95% of
// the true eps-neighbors, averaged over the dataset.
func TestHNSWRangeRecallDefaultKnob(t *testing.T) {
	d := GenerateMixture("hnsw-recall", MixtureConfig{
		N: 1500, Dim: 32, Clusters: 6, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 29,
	})
	const eps = 0.4
	p := Params{Eps: eps, Tau: 5, Seed: 1}

	exactIdx := NewBruteForceIndex(d.Vectors, MetricCosine)
	p.IndexBackend = "hnsw"
	hnswIdx, name, err := p.NewIndex(d.Vectors, MetricCosine)
	if err != nil {
		t.Fatal(err)
	}
	if name != "hnsw" {
		t.Fatalf("resolved backend %q, want hnsw", name)
	}

	var found, truth int
	for _, q := range d.Vectors {
		exact := exactIdx.RangeSearch(q, eps)
		if len(exact) == 0 {
			continue
		}
		truthSet := make(map[int]bool, len(exact))
		for _, id := range exact {
			truthSet[id] = true
		}
		truth += len(exact)
		for _, id := range hnswIdx.RangeSearch(q, eps) {
			if truthSet[id] {
				found++
			}
		}
	}
	recall := float64(found) / float64(truth)
	if recall < 0.95 {
		t.Errorf("HNSW range recall at default EfSearch = %.4f, want >= 0.95", recall)
	}
	t.Logf("recall = %.4f over %d true neighbor pairs", recall, truth)
}

// TestModelIndexBackendRoundTrip checks the backend surfaces through the
// model API and survives persistence: a fit with WithIndexBackend reports
// the resolved name, and a save/load round trip rebuilds the same backend
// deterministically with identical predictions.
func TestModelIndexBackendRoundTrip(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithSeed(7),
		WithIndexBackend("hnsw"), WithEfSearch(96))
	if err != nil {
		t.Fatal(err)
	}
	if got := model.IndexBackend(); got != "hnsw" {
		t.Fatalf("fitted model IndexBackend() = %q, want hnsw", got)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.IndexBackend(); got != "hnsw" {
		t.Fatalf("loaded model IndexBackend() = %q, want hnsw", got)
	}

	want, _, err := model.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d diverged after round trip: %d vs %d", i, got[i], want[i])
		}
	}

	// The exact default still reports what backs it.
	exact, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.IndexBackend(); got != "brute" {
		t.Errorf("default fit IndexBackend() = %q, want brute", got)
	}
}

// TestEntryPointsRejectBadBackend checks the backend knob is validated at
// the same gate as every other parameter.
func TestEntryPointsRejectBadBackend(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}}
	bad := Params{Eps: 0.5, Tau: 2, IndexBackend: "bogus"}
	if _, err := DBSCAN(pts, bad); err == nil || !strings.Contains(err.Error(), "invalid IndexBackend") {
		t.Errorf("DBSCAN with unknown backend: err = %v, want invalid IndexBackend", err)
	}
	if _, err := Fit(context.Background(), pts, MethodDBSCAN,
		WithEps(0.5), WithTau(2), WithIndexBackend("bogus")); err == nil {
		t.Error("Fit accepted an unknown index backend")
	}
	if _, err := Fit(context.Background(), pts, MethodDBSCAN,
		WithEps(0.5), WithTau(2), WithEfSearch(-1)); err == nil {
		t.Error("Fit accepted a negative EfSearch")
	}
}

// TestReadmeBackendTableMatchesRegistry keeps the README's "Index
// backends" table from drifting: its rows name exactly IndexBackends(),
// in registry order.
func TestReadmeBackendTableMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Index backends\n")
	if !ok {
		t.Fatal(`README has no "## Index backends" section`)
	}
	// The table is the first run of "|" lines; its data rows start with a
	// backtick-quoted backend name.
	var rows []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		name := strings.TrimSpace(strings.Split(line, "|")[1])
		if strings.HasPrefix(name, "`") {
			rows = append(rows, strings.Trim(name, "`"))
		}
	}
	if !slices.Equal(rows, IndexBackends()) {
		t.Fatalf("README backend table lists %v, registry has %v", rows, IndexBackends())
	}
}
