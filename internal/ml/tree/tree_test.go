package tree

import (
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

func gridData() ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	for a := 0.0; a < 10; a++ {
		for b := 0.0; b < 10; b++ {
			x = append(x, []float64{a, b})
			v := 1.0
			if a >= 5 {
				v = 3.0
			}
			if b >= 7 {
				v += 10
			}
			y = append(y, v)
		}
	}
	return x, y
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestVarianceTreeRecoversPiecewiseConstant(t *testing.T) {
	x, y := gridData()
	tr := BuildVariance(x, y, allIdx(len(x)), Options{MaxDepth: 4, MinLeaf: 1})
	for i := range x {
		if got := refPredict(tr, x[i]); math.Abs(got-y[i]) > 1e-9 {
			t.Fatalf("x=%v: predict %v want %v", x[i], got, y[i])
		}
	}
}

func TestDepthZeroIsMean(t *testing.T) {
	x, y := gridData()
	tr := BuildVariance(x, y, allIdx(len(x)), Options{MaxDepth: 0, MinLeaf: 1})
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	if got := refPredict(tr, []float64{0, 0}); math.Abs(got-mean) > 1e-9 {
		t.Errorf("stump value %v, want mean %v", got, mean)
	}
	if len(tr) != 1 {
		t.Errorf("depth-0 tree has %d nodes", len(tr))
	}
}

func TestMinLeafRespected(t *testing.T) {
	x, y := gridData()
	tr := BuildVariance(x, y, allIdx(len(x)), Options{MaxDepth: 10, MinLeaf: 30})
	// With MinLeaf 30 of 100 samples, depth is severely limited; count
	// leaves and ensure no leaf got fewer than 30 training points by
	// checking the tree is small.
	if len(tr) > 7 {
		t.Errorf("tree too large for MinLeaf=30: %d nodes", len(tr))
	}
}

func TestGradHessLeafValue(t *testing.T) {
	// Squared loss: g = pred0 - y (pred0 = 0), h = 1. A depth-0 tree's
	// value must be mean(y) with lambda = 0.
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 2, 6}
	g := make([]float64, 3)
	h := make([]float64, 3)
	for i := range y {
		g[i] = -y[i]
		h[i] = 1
	}
	tr := NewSample(x, allIdx(3)).BuildGradHess(g, h, Options{MaxDepth: 0, Lambda: 0}, nil)
	if got := refPredict(tr, []float64{0}); math.Abs(got-3) > 1e-9 {
		t.Errorf("leaf = %v, want 3", got)
	}
	// With large lambda the leaf shrinks toward zero.
	tr = NewSample(x, allIdx(3)).BuildGradHess(g, h, Options{MaxDepth: 0, Lambda: 1e9}, nil)
	if got := refPredict(tr, []float64{0}); math.Abs(got) > 1e-6 {
		t.Errorf("shrunk leaf = %v", got)
	}
}

func TestGradHessSplitsOnInformativeFeature(t *testing.T) {
	// Feature 1 is noise; feature 0 separates the targets.
	rng := sim.NewRNG(1)
	var x [][]float64
	var g, h []float64
	for i := 0; i < 200; i++ {
		f0 := float64(i % 2)
		x = append(x, []float64{f0, rng.Float64()})
		g = append(g, -(f0*10 + rng.Norm()*0.01))
		h = append(h, 1)
	}
	tr := NewSample(x, allIdx(len(x))).BuildGradHess(g, h, Options{MaxDepth: 1, Lambda: 1}, nil)
	lo := refPredict(tr, []float64{0, 0.5})
	hi := refPredict(tr, []float64{1, 0.5})
	if !(hi > lo+5) {
		t.Errorf("split failed: lo=%v hi=%v", lo, hi)
	}
}

func TestMTrySubsampling(t *testing.T) {
	// With MTry=1 and a fixed RNG, the tree still fits something sensible
	// and never inspects out-of-range features.
	x, y := gridData()
	tr := BuildVariance(x, y, allIdx(len(x)), Options{MaxDepth: 6, MinLeaf: 1, MTry: 1, RNG: sim.NewRNG(3)})
	mse := 0.0
	for i := range x {
		d := refPredict(tr, x[i]) - y[i]
		mse += d * d
	}
	mse /= float64(len(x))
	full := BuildVariance(x, y, allIdx(len(x)), Options{MaxDepth: 6, MinLeaf: 1})
	fullMSE := 0.0
	for i := range x {
		d := refPredict(full, x[i]) - y[i]
		fullMSE += d * d
	}
	fullMSE /= float64(len(x))
	if fullMSE > mse+1e-9 {
		t.Errorf("full tree (%v) should fit at least as well as MTry=1 (%v)", fullMSE, mse)
	}
}

func TestConstantFeaturesNoSplit(t *testing.T) {
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	y := []float64{1, 2, 3}
	tr := BuildVariance(x, y, allIdx(3), Options{MaxDepth: 5, MinLeaf: 1})
	if len(tr) != 1 {
		t.Errorf("constant features must yield a stump, got %d nodes", len(tr))
	}
}
