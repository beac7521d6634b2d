package knn

import (
	"math"
	"testing"
)

func TestExactNeighborsMean(t *testing.T) {
	// Two clusters of five on a 1-D line: a prediction inside one cluster
	// must average exactly its five targets.
	r := New()
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {10}, {11}, {12}, {13}, {14}}
	y := []float64{2, 4, 6, 8, 10, 100, 200, 300, 400, 500}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{0.1}); got != 6 {
		t.Errorf("predict = %v, want 6", got)
	}
	if got := r.Predict([]float64{12.4}); got != 300 {
		t.Errorf("predict = %v, want 300", got)
	}
}

func TestScalingMakesFeaturesComparable(t *testing.T) {
	// Feature 0 spans millions (like message sizes), feature 1 spans units
	// (like node counts). Without scaling, feature 1 would be invisible.
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		m := float64((i % 4) * 1000000)
		n := float64(i % 10)
		x = append(x, []float64{m, n})
		y = append(y, n*10+1) // depends ONLY on the small feature
	}
	r := New()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Probe with an m value present in training and an extreme n.
	got := r.Predict([]float64{2000000, 9})
	if math.Abs(got-91) > 15 {
		t.Errorf("scaled KNN should track the small feature: got %v, want ~91", got)
	}
}

func TestKLargerThanTrainingSet(t *testing.T) {
	r := New() // K = 5 neighbours, two samples
	if err := r.Fit([][]float64{{1}, {2}}, []float64{4, 6}); err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{1.5}); got != 5 {
		t.Errorf("k>n should average everything: %v", got)
	}
}

func TestDefaultKIsFive(t *testing.T) {
	r := New()
	var x [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, float64(i))
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Neighbors of 0 are {0,1,2,3,4} -> mean 2.
	if got := r.Predict([]float64{0}); got != 2 {
		t.Errorf("k=5 mean = %v, want 2", got)
	}
}

func TestConstantFeatureIgnored(t *testing.T) {
	r := New()
	var x [][]float64
	var y []float64
	for i := 1; i <= 12; i++ {
		x = append(x, []float64{5, float64(i)})
		y = append(y, float64(i))
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// The five nearest by the informative feature: 4, 5, 6, 7 and 8.
	if got := r.Predict([]float64{5, 6.1}); got != 6 {
		t.Errorf("nearest by informative feature = %v, want 6", got)
	}
}

func TestUnfittedIsNaN(t *testing.T) {
	if !math.IsNaN(New().Predict([]float64{1})) {
		t.Error("unfitted KNN should return NaN")
	}
}

func TestInsertionKeepsKSmallest(t *testing.T) {
	// Regression test for the bounded-insertion logic: feed points in an
	// order that exercises mid-list insertion.
	r := New()
	x := [][]float64{{10}, {1}, {7}, {2}, {8}, {3}, {9}, {4}, {11}, {5}}
	y := []float64{100, 10, 70, 20, 80, 30, 90, 40, 110, 50}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{0}); got != 30 { // neighbors 1,2,3,4,5
		t.Errorf("k-smallest selection broken: %v, want 30", got)
	}
}
