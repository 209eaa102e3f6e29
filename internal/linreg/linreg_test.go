package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFit1DExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x + 0.7
	}
	a, b, err := Fit1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 2.5, 1e-9) || !almostEq(b, 0.7, 1e-9) {
		t.Fatalf("fit = (%v, %v), want (2.5, 0.7)", a, b)
	}
}

func TestFit1DNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, 3.2*x-1.4+rng.NormFloat64()*0.05)
	}
	a, b, err := Fit1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 3.2, 0.02) || !almostEq(b, -1.4, 0.05) {
		t.Fatalf("noisy fit = (%v, %v), want ≈(3.2, -1.4)", a, b)
	}
}

func TestFit1DErrors(t *testing.T) {
	if _, _, err := Fit1D([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample should be degenerate")
	}
	if _, _, err := Fit1D([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should be degenerate")
	}
	if _, _, err := Fit1D([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

// TestFit1DRecoversPlantedLine is a property test: any non-degenerate planted
// line is recovered exactly from noise-free samples.
func TestFit1DRecoversPlantedLine(t *testing.T) {
	f := func(a8, b8 int8, seed int64) bool {
		alpha := float64(a8) / 8
		beta := float64(b8) / 4
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 16)
		ys := make([]float64, 16)
		for i := range xs {
			xs[i] = rng.Float64()*20 - 10
			ys[i] = alpha*xs[i] + beta
		}
		gotA, gotB, err := Fit1D(xs, ys)
		if err != nil {
			// Only acceptable if the xs happened to be (nearly) constant.
			return true
		}
		return almostEq(gotA, alpha, 1e-6) && almostEq(gotB, beta, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := RSquared(y, y); r != 1 {
		t.Errorf("perfect fit R² = %v, want 1", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := RSquared(y, mean); r != 0 {
		t.Errorf("mean fit R² = %v, want 0", r)
	}
	if !math.IsNaN(RSquared(y, y[:2])) {
		t.Error("mismatched lengths should yield NaN")
	}
	if r := RSquared([]float64{3, 3}, []float64{3, 3}); r != 1 {
		t.Errorf("constant/exact R² = %v, want 1", r)
	}
	if r := RSquared([]float64{3, 3}, []float64{4, 4}); !math.IsInf(r, -1) {
		t.Errorf("constant/miss R² = %v, want -Inf", r)
	}
}
