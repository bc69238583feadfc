package index

import (
	"slices"
	"strings"
	"testing"

	"lafdbscan/internal/vecmath"
)

func TestBackendsListing(t *testing.T) {
	names := Backends()
	want := []string{BackendBrute, BackendHNSW}
	if !slices.Equal(names, want) {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	for _, n := range names {
		if _, ok := LookupBackend(n); !ok {
			t.Fatalf("LookupBackend(%q) not found", n)
		}
	}
	for _, gone := range []string{"faiss", "covertree", "kmeanstree", "grid"} {
		if _, ok := LookupBackend(gone); ok {
			t.Fatalf("LookupBackend accepted the unregistered name %q", gone)
		}
	}
}

func TestBackendCapabilities(t *testing.T) {
	brute, _ := LookupBackend(BackendBrute)
	if !brute.Exact || brute.KNN || !brute.Cosine || !brute.Euclidean {
		t.Fatalf("brute capabilities wrong: %+v", brute)
	}
	hnswCaps, _ := LookupBackend(BackendHNSW)
	if hnswCaps.Exact || !hnswCaps.KNN || !hnswCaps.Cosine || !hnswCaps.Euclidean {
		t.Fatalf("hnsw capabilities wrong: %+v", hnswCaps)
	}
}

func TestNewBackendErrors(t *testing.T) {
	pts := clusteredPoints(20, 8, 1)
	for _, name := range []string{"faiss", "grid"} {
		if _, err := NewBackend(name, pts, BackendOptions{}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("%s: unknown backend error = %v", name, err)
		}
	}
	// Metric-capability rejection: no backend answers an unknown metric.
	if _, err := NewBackend(BackendBrute, pts, BackendOptions{Metric: vecmath.Metric(99)}); err == nil ||
		!strings.Contains(err.Error(), "does not support metric") {
		t.Fatalf("unknown-metric error = %v", err)
	}
}

// TestEveryBackendBuildsAndAnswers exercises the registry end to end:
// each backend builds under both metrics and answers a self-query.
func TestEveryBackendBuildsAndAnswers(t *testing.T) {
	pts := clusteredPoints(50, 8, 5)
	for _, name := range Backends() {
		for _, m := range []vecmath.Metric{vecmath.Cosine, vecmath.Euclidean} {
			idx, err := NewBackend(name, slices.Clone(pts), BackendOptions{Metric: m, Seed: 1})
			if err != nil {
				t.Fatalf("building %s under %v: %v", name, m, err)
			}
			if idx.Len() != len(pts) {
				t.Fatalf("%s: Len = %d, want %d", name, idx.Len(), len(pts))
			}
			if ids := idx.RangeSearch(pts[0], 1e-6); !slices.Contains(ids, 0) {
				t.Fatalf("%s: self-query missed: %v", name, ids)
			}
			if batch := idx.BatchRangeSearch(pts[:4], 0.4); len(batch) != 4 {
				t.Fatalf("%s: batch returned %d results", name, len(batch))
			}
		}
	}
}

func TestResolveBackend(t *testing.T) {
	// The default chain requires exactness by default, so resolution lands
	// on brute force — the behavior-preserving default.
	got, err := ResolveBackend(nil, Requirements{Exact: true, Metric: vecmath.Cosine})
	if err != nil || got != BackendBrute {
		t.Fatalf("exact default resolution = %q, %v", got, err)
	}
	// Dropping the exactness requirement opts into the graph.
	got, err = ResolveBackend(nil, Requirements{Metric: vecmath.Euclidean})
	if err != nil || got != BackendHNSW {
		t.Fatalf("approx default resolution = %q, %v", got, err)
	}
	// A chain that cannot satisfy the requirements reports every rejection.
	_, err = ResolveBackend([]string{BackendHNSW}, Requirements{Exact: true, Metric: vecmath.Cosine})
	if err == nil || !strings.Contains(err.Error(), "rejected [hnsw]") {
		t.Fatalf("exhausted-chain error = %v", err)
	}
	// Unknown names fail loudly rather than being skipped.
	for _, chain := range [][]string{{"faiss"}, {"covertree", BackendBrute}} {
		if _, err = ResolveBackend(chain, Requirements{Metric: vecmath.Cosine}); err == nil ||
			!strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("chain %v: unknown-chain error = %v", chain, err)
		}
	}
}
