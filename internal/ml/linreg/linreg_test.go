package linreg

import (
	"math"
	"testing"
)

func TestRecoversLogLinearModel(t *testing.T) {
	// y = exp(-10 + 0.5 a - 0.2 b): exactly representable.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, math.Exp(-10+0.5*a-0.2*b))
		}
	}
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if rel := math.Abs(r.Predict(x[i])-y[i]) / y[i]; rel > 1e-6 {
			t.Fatalf("x=%v: rel err %v", x[i], rel)
		}
	}
}

func TestFailsOnNonLinearSurface(t *testing.T) {
	// The paper's point: a step-like runtime surface is not log-linear.
	var x [][]float64
	var y []float64
	for i := 0; i < 64; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		t := 1e-6
		if i >= 32 {
			t = 64e-6 // protocol switch
		}
		y = append(y, t)
	}
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range x {
		if rel := math.Abs(r.Predict(x[i])-y[i]) / y[i]; rel > worst {
			worst = rel
		}
	}
	if worst < 0.5 {
		t.Errorf("linear model unexpectedly fit a step function (worst rel err %.2f)", worst)
	}
}

func TestUnfittedIsNaN(t *testing.T) {
	if !math.IsNaN(New().Predict([]float64{1})) {
		t.Error("unfitted model should return NaN")
	}
}
