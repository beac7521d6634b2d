package xgb

import (
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

func noisySurface(n int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	var x [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		a := rng.Float64() * 20
		b := rng.Float64() * 36
		t := 1e-6 * (1 + a*a/40 + b/6) * rng.LogNormal(0.05)
		x = append(x, []float64{a, b})
		y = append(y, t)
	}
	return x, y
}

// TestObjectivesAllLearn checks that the Tweedie loss, the one loss, learns
// the surface in sample.
func TestObjectivesAllLearn(t *testing.T) {
	x, y := noisySurface(400, 3)
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// In-sample relative error should be small.
	sumRel := 0.0
	for i := range x {
		sumRel += math.Abs(r.Predict(x[i])-y[i]) / y[i]
	}
	if rel := sumRel / float64(len(x)); rel > 0.15 {
		t.Errorf("in-sample relative error %.3f", rel)
	}
}

func TestPredictionsPositive(t *testing.T) {
	x, y := noisySurface(100, 4)
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{0, 0}, {20, 36}, {-5, 100}} {
		if p := r.Predict(probe); !(p > 0) || math.IsInf(p, 0) {
			t.Errorf("prediction %v for %v", p, probe)
		}
	}
}

func TestBaseScoreIsLogMean(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2, 2, 2, 2}
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Constant target: prediction must be (nearly) exactly the constant.
	if p := r.Predict([]float64{2.5}); math.Abs(p-2) > 0.2 {
		t.Errorf("constant-target prediction %v", p)
	}
}

func TestEarlyStopOnConvergence(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{1, 1}
	r := New() // Rounds = 200
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r.NumTrees() >= 200 {
		t.Errorf("converged fit should stop early, used %d trees", r.NumTrees())
	}
}

func TestTweedieGradientSigns(t *testing.T) {
	// At the optimum f = log(y), the Tweedie gradient must vanish.
	y := []float64{0.001}
	score := []float64{math.Log(0.001)}
	g := make([]float64, 1)
	h := make([]float64, 1)
	gradients(y, score, g, h)
	if math.Abs(g[0]) > 1e-12 {
		t.Errorf("gradient at optimum = %v", g[0])
	}
	if h[0] <= 0 {
		t.Errorf("hessian must be positive, got %v", h[0])
	}
	// Below the optimum the gradient must push predictions up (negative g).
	score[0] = math.Log(0.001) - 1
	gradients(y, score, g, h)
	if g[0] >= 0 {
		t.Errorf("gradient below optimum should be negative, got %v", g[0])
	}
}

// BenchmarkFit times one default 200-round Tweedie fit on the 400-row
// tie-heavy golden set, about the size of one Table IV configuration model.
func BenchmarkFit(b *testing.B) {
	x, y := dupSurface(400, 11, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New().Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// predictSink keeps BenchmarkPredict's predictions live.
var predictSink float64

// BenchmarkPredict times one prediction of the default fit on the 400-row
// tie-heavy golden set, cycling through a fixed query set: that set's rows.
func BenchmarkPredict(b *testing.B) {
	x, y := dupSurface(400, 11, false)
	r := New()
	if err := r.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink += r.Predict(x[i%len(x)])
	}
}
