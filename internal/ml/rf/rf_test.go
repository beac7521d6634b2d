package rf

import (
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

func surface(n int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	var x [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		a := rng.Float64() * 20
		b := rng.Float64() * 30
		x = append(x, []float64{a, b})
		y = append(y, 1e-6*(1+a+b/3)*rng.LogNormal(0.05))
	}
	return x, y
}

func TestForestLearnsInSample(t *testing.T) {
	x, y := surface(300, 1)
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sumRel := 0.0
	for i := range x {
		sumRel += math.Abs(r.Predict(x[i])-y[i]) / y[i]
	}
	if rel := sumRel / float64(len(x)); rel > 0.10 {
		t.Errorf("in-sample relative error %.3f", rel)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	x, y := surface(100, 2)
	a, b := New(), New()
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{10, 10}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same seed must give identical forests")
	}
}

func TestUnfittedIsNaN(t *testing.T) {
	if !math.IsNaN(New().Predict([]float64{1})) {
		t.Error("unfitted forest should return NaN")
	}
}

// BenchmarkFit times one default 100-tree forest fit on the 400-row
// tie-heavy golden set.
func BenchmarkFit(b *testing.B) {
	x, y := dupSurface(400, 11, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New().Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
