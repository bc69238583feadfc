package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCosineDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float64
	}{
		{[]float32{1, 0}, []float32{1, 0}, 0},
		{[]float32{1, 0}, []float32{0, 1}, 1},
		{[]float32{1, 0}, []float32{-1, 0}, 2},
		{[]float32{2, 0}, []float32{5, 0}, 0}, // scale invariant
	}
	for _, c := range cases {
		if got := CosineDistance(c.a, c.b); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("CosineDistance(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosineDistanceZeroVector(t *testing.T) {
	if got := CosineDistance([]float32{0, 0}, []float32{1, 0}); got != 1 {
		t.Errorf("CosineDistance with zero vector = %v, want 1", got)
	}
}

// Property: cosine distance is bounded in [0, 2] and symmetric.
func TestCosineDistanceBoundedSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandomGaussian(24, 0, 3, r)
		b := RandomGaussian(24, 0, 3, r)
		d1 := CosineDistance(a, b)
		d2 := CosineDistance(b, a)
		return d1 >= 0 && d1 <= 2 && almostEqual(d1, d2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDistancesSymmetricBitForBit pins a precondition of the HNSW build,
// which stores the distance a new node computed to a neighbor and reuses it
// as the neighbor's distance back: swapping the arguments must give the
// same float64, not merely a close one.
func TestDistancesSymmetricBitForBit(t *testing.T) {
	funcs := []struct {
		name string
		f    DistanceFunc
	}{
		{"CosineDistanceUnit", CosineDistanceUnit},
		{"CosineDistance", CosineDistance},
		{"EuclideanDistance", EuclideanDistance},
	}
	r := rand.New(rand.NewSource(1))
	// mixed draws each coordinate from {-x, 0, +x}, with x Gaussian.
	mixed := func(dim int) []float32 {
		v := RandomGaussian(dim, 0, 2, r)
		for i := range v {
			switch r.Intn(3) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = -v[i]
			}
		}
		return v
	}
	var pairs [][2][]float32
	for _, dim := range []int{1, 3, 7, 24, 199, 200} {
		for k := 0; k < 50; k++ {
			pairs = append(pairs,
				[2][]float32{RandomUnit(dim, r), RandomUnit(dim, r)},
				[2][]float32{RandomGaussian(dim, 0, 3, r), RandomGaussian(dim, 1, 0.5, r)},
				[2][]float32{mixed(dim), mixed(dim)},
			)
		}
		pairs = append(pairs, [2][]float32{make([]float32, dim), mixed(dim)})
	}
	for _, fn := range funcs {
		for _, p := range pairs {
			ab, ba := fn.f(p[0], p[1]), fn.f(p[1], p[0])
			if math.Float64bits(ab) != math.Float64bits(ba) {
				t.Fatalf("%s not symmetric at dim %d: %v vs %v", fn.name, len(p[0]), ab, ba)
			}
		}
	}
}

// Property: on unit vectors the fast path agrees with the general one.
func TestCosineDistanceUnitAgrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandomUnit(32, r)
		b := RandomUnit(32, r)
		return almostEqual(CosineDistance(a, b), CosineDistanceUnit(a, b), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEuclideanDistance(t *testing.T) {
	if got := EuclideanDistance([]float32{0, 0}, []float32{3, 4}); !almostEqual(got, 5, 1e-9) {
		t.Errorf("EuclideanDistance = %v, want 5", got)
	}
	if got := EuclideanDistance([]float32{1, 2, 3}, []float32{1, 2, 3}); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

// Property: Equation 1 of the paper. On unit vectors,
// d_euc = sqrt(2 * d_cos) exactly relates the two metrics.
func TestEquationOneCosineEuclideanEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandomUnit(48, r)
		b := RandomUnit(48, r)
		dcos := CosineDistance(a, b)
		deuc := EuclideanDistance(a, b)
		return almostEqual(deuc, CosineToEuclidean(dcos), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCosineEuclideanRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 0.1, 0.5, 1.0, 1.7, 2.0} {
		if got := EuclideanToCosine(CosineToEuclidean(d)); !almostEqual(got, d, 1e-12) {
			t.Errorf("round trip of %v = %v", d, got)
		}
	}
	// The paper's worked example: d_cos = 0.5 maps to d_euc = 1.0.
	if got := CosineToEuclidean(0.5); !almostEqual(got, 1.0, 1e-12) {
		t.Errorf("CosineToEuclidean(0.5) = %v, want 1.0", got)
	}
}

func TestConversionPanicsOnNegative(t *testing.T) {
	for _, f := range []func(){func() { CosineToEuclidean(-1) }, func() { EuclideanToCosine(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on negative distance")
				}
			}()
			f()
		}()
	}
}

func TestMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || Euclidean.String() != "euclidean" {
		t.Error("Metric.String mismatch")
	}
	if Metric(42).String() != "Metric(42)" {
		t.Error("unknown metric String mismatch")
	}
}

func TestMetricFunc(t *testing.T) {
	a, b := []float32{1, 0}, []float32{0, 1}
	if got := Cosine.Func()(a, b); !almostEqual(got, 1, 1e-9) {
		t.Errorf("Cosine.Func() = %v", got)
	}
	if got := Euclidean.Func()(a, b); !almostEqual(got, math.Sqrt2, 1e-6) {
		t.Errorf("Euclidean.Func() = %v", got)
	}
}

func TestMetricFuncPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Metric(7).Func()
}

func TestSquaredEuclideanMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SquaredEuclidean([]float32{1}, []float32{1, 2})
}
