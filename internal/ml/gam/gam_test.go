package gam

import (
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

func TestBSplineBasisPartitionOfUnity(t *testing.T) {
	nb := 8
	out := make([]float64, nb)
	for _, v := range []float64{0, 0.1, 0.5, 0.77, 1} {
		bsplineBasis(v, 0, 1, nb, out)
		sum := 0.0
		for _, b := range out {
			if b < -1e-12 {
				t.Fatalf("negative basis value %v at %v", b, v)
			}
			sum += b
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("basis at %v sums to %v", v, sum)
		}
	}
}

func TestBSplineBasisLocality(t *testing.T) {
	nb := 10
	out := make([]float64, nb)
	bsplineBasis(0.05, 0, 1, nb, out)
	nonzero := 0
	for _, b := range out {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero > 4 {
		t.Errorf("cubic B-spline should have <= 4 active functions, got %d", nonzero)
	}
}

func TestGAMFitsSmoothMultiplicativeSurface(t *testing.T) {
	// y = exp(f1(a) + f2(b)) * noise — exactly a log-link additive model.
	rng := sim.NewRNG(9)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 5
		f := -12 + 0.5*math.Sin(a) + 0.3*b + 0.05*b*b
		x = append(x, []float64{a, b})
		y = append(y, math.Exp(f)*rng.LogNormal(0.05))
	}
	g := New()
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sumRel, n := 0.0, 0
	for a := 0.5; a < 10; a += 0.7 {
		for b := 0.25; b < 5; b += 0.5 {
			truth := math.Exp(-12 + 0.5*math.Sin(a) + 0.3*b + 0.05*b*b)
			got := g.Predict([]float64{a, b})
			sumRel += math.Abs(got-truth) / truth
			n++
		}
	}
	if rel := sumRel / float64(n); rel > 0.10 {
		t.Errorf("relative error %.3f on an additive surface", rel)
	}
}

func TestGCVSelectsFromGrid(t *testing.T) {
	rng := sim.NewRNG(11)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64() * 10
		x = append(x, []float64{a})
		y = append(y, math.Exp(-10+math.Sin(a))*rng.LogNormal(0.1))
	}
	g := New()
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range Lambdas() {
		if g.Lambda() == l {
			found = true
		}
	}
	if !found {
		t.Errorf("selected lambda %v not from the grid", g.Lambda())
	}
	if g.EDF() <= 1 || g.EDF() > float64(1+NumBasis) {
		t.Errorf("implausible EDF %v", g.EDF())
	}
}

func TestPredictClampsOutOfRange(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 1e-6*float64(1+i))
	}
	g := New()
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	inRange := g.Predict([]float64{49})
	beyond := g.Predict([]float64{490})
	if math.Abs(beyond-inRange)/inRange > 1e-9 {
		t.Errorf("out-of-range input should clamp: %v vs %v", beyond, inRange)
	}
	if p := g.Predict([]float64{-100}); !(p > 0) {
		t.Errorf("clamped-low prediction %v", p)
	}
}

func TestUnfittedPredictIsNaN(t *testing.T) {
	if !math.IsNaN(New().Predict([]float64{1})) {
		t.Error("unfitted model should return NaN")
	}
}

// BenchmarkFit times one default fit on the 400-row, 4-feature golden set,
// about the size of one Table IV configuration model.
func BenchmarkFit(b *testing.B) {
	x, y := featureSurface(400, 7, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New().Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
