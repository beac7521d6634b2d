package ml

import (
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

// syntheticRuntime mimics a collective's cost surface: latency term scaled
// by log p plus a bandwidth term, with mild multiplicative noise.
func syntheticRuntime(logm, n, ppn float64, rng *sim.RNG) float64 {
	p := n * ppn
	m := math.Exp2(logm)
	t := 2e-6*math.Log2(p+1) + m*3e-10*math.Log2(p+1) + 1e-6
	if rng != nil {
		t *= rng.LogNormal(0.05)
	}
	return t
}

func syntheticData(n int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	var x [][]float64
	var y []float64
	nodes := []float64{4, 8, 16, 20, 24, 32, 36}
	ppns := []float64{1, 8, 16, 32}
	logms := []float64{0, 4, 8, 10, 12, 14, 16, 19, 20, 22}
	for len(x) < n {
		nd := nodes[rng.Intn(len(nodes))]
		pp := ppns[rng.Intn(len(ppns))]
		lm := logms[rng.Intn(len(logms))]
		x = append(x, []float64{lm, nd, pp})
		y = append(y, syntheticRuntime(lm, nd, pp, rng))
	}
	return x, y
}

// paperLearners are the three learners evaluated in the paper, in the
// order of Table IV.
var paperLearners = []string{"knn", "gam", "xgboost"}

// relError is the mean relative absolute error on a held-out grid.
func relError(t *testing.T, learner string) float64 {
	t.Helper()
	x, y := syntheticData(600, 1)
	r, err := New(learner)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Held-out: odd node counts not in training.
	sum, cnt := 0.0, 0
	for _, nd := range []float64{7, 13, 19, 27, 35} {
		for _, pp := range []float64{1, 8, 16, 32} {
			for _, lm := range []float64{0, 8, 12, 16, 20, 22} {
				truth := syntheticRuntime(lm, nd, pp, nil)
				got := r.Predict([]float64{lm, nd, pp})
				if math.IsNaN(got) || got <= 0 {
					t.Fatalf("%s: bad prediction %v", learner, got)
				}
				sum += math.Abs(got-truth) / truth
				cnt++
			}
		}
	}
	return sum / float64(cnt)
}

func TestLearnersInterpolateRuntimeSurface(t *testing.T) {
	// The paper's point: standard learners work out of the box. Each must
	// get within modest relative error on unseen node counts; the linear
	// baseline is expected to be much worse (that is the ablation story),
	// so it only gets a sanity bound.
	bounds := map[string]float64{
		"knn":     0.35,
		"gam":     0.30,
		"xgboost": 0.35,
		"rf":      0.50,
		"linear":  3.00,
	}
	for learner, bound := range bounds {
		e := relError(t, learner)
		t.Logf("%s: mean relative error %.3f", learner, e)
		if e > bound {
			t.Errorf("%s: error %.3f exceeds bound %.3f", learner, e, bound)
		}
	}
}

func TestLinearIsWorstLearner(t *testing.T) {
	// Reproduces the paper's observation that linear regression fails on
	// this problem while the chosen learners do not.
	linErr := relError(t, "linear")
	for _, learner := range paperLearners {
		if e := relError(t, learner); e >= linErr {
			t.Errorf("%s (%.3f) should beat linear regression (%.3f)", learner, e, linErr)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != 5 {
		t.Errorf("expected 5 learners, got %v", Names())
	}
	if _, err := New("svm"); err == nil {
		t.Error("expected error for unknown learner")
	}
	for _, n := range paperLearners {
		if _, err := New(n); err != nil {
			t.Errorf("paper learner %s missing: %v", n, err)
		}
	}
}

func TestValidation(t *testing.T) {
	for _, name := range Names() {
		r, _ := New(name)
		if err := r.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty fit must fail", name)
		}
		r, _ = New(name)
		if err := r.Fit([][]float64{{1}, {2}}, []float64{1, -1}); err == nil {
			t.Errorf("%s: negative target must fail", name)
		}
		r, _ = New(name)
		if err := r.Fit([][]float64{{1}, {2}}, []float64{1, 0}); err == nil {
			t.Errorf("%s: zero target must fail", name)
		}
		r, _ = New(name)
		if err := r.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: length mismatch must fail", name)
		}
		r, _ = New(name)
		if err := r.Fit([][]float64{{1}, {2, 3}}, []float64{1, 1}); err == nil {
			t.Errorf("%s: ragged rows must fail", name)
		}
	}
}

func TestLearnersDeterministic(t *testing.T) {
	x, y := syntheticData(200, 2)
	probe := []float64{12, 13, 8}
	for _, name := range Names() {
		a, _ := New(name)
		b, _ := New(name)
		if err := a.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pa, pb := a.Predict(probe), b.Predict(probe); pa != pb {
			t.Errorf("%s: nondeterministic predictions %v vs %v", name, pa, pb)
		}
	}
}

func TestLearnersHandleConstantFeature(t *testing.T) {
	// ppn constant in the training data (a realistic degenerate slice).
	rng := sim.NewRNG(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		lm := float64(i % 12)
		x = append(x, []float64{lm, 16, 8})
		y = append(y, syntheticRuntime(lm, 16, 8, rng))
	}
	for _, name := range Names() {
		r, _ := New(name)
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := r.Predict([]float64{6, 16, 8}); math.IsNaN(p) || p <= 0 {
			t.Errorf("%s: bad prediction %v with constant features", name, p)
		}
	}
}

func TestLearnersSmallTrainingSet(t *testing.T) {
	x, y := syntheticData(12, 7)
	for _, name := range Names() {
		r, _ := New(name)
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s with 12 samples: %v", name, err)
		}
		if p := r.Predict(x[0]); math.IsNaN(p) || p <= 0 {
			t.Errorf("%s: bad prediction %v on tiny training set", name, p)
		}
	}
}
