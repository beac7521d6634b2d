// Package knn implements k-nearest-neighbour regression with standardized
// (z-scaled) inputs, matching the paper's caret setup: K = 5, Euclidean
// distance, mean of the neighbours' running times. The paper scales inputs
// because the message size otherwise dominates the distance metric.
package knn

import (
	"fmt"
	"math"
	"sort"

	"mpicollpred/internal/floats"
)

// K is the neighbourhood size, the paper's caret default. It is a
// constant: snapshots still carry it, in the slot the format has always
// had, and a decoder rejects any other value.
const K = 5

// Regressor is a KNN regression model.
type Regressor struct {
	mean  []float64
	scale []float64
	x     [][]float64 // scaled copies of the training rows
	y     []float64
}

// New returns an unfitted KNN regressor.
func New() *Regressor { return &Regressor{} }

// State is the exported fitted-model state, used by the snapshot codec.
// X holds the z-scaled training rows exactly as Predict consumes them, so a
// restored model computes bit-identical distances.
type State struct {
	Mean, Scale []float64
	X           [][]float64
	Y           []float64
}

// State exports the fitted model.
func (r *Regressor) State() State {
	return State{Mean: r.mean, Scale: r.scale, X: r.x, Y: r.y}
}

// FromState rebuilds a fitted model, validating the shapes so a corrupted
// snapshot cannot index out of bounds at prediction time.
func FromState(s State) (*Regressor, error) {
	if len(s.X) == 0 || len(s.X) != len(s.Y) {
		return nil, fmt.Errorf("knn: snapshot has %d rows but %d targets", len(s.X), len(s.Y))
	}
	d := len(s.Mean)
	if len(s.Scale) != d {
		return nil, fmt.Errorf("knn: snapshot has %d means but %d scales", d, len(s.Scale))
	}
	for i, row := range s.X {
		if len(row) != d {
			return nil, fmt.Errorf("knn: snapshot row %d has %d features, want %d", i, len(row), d)
		}
	}
	return &Regressor{mean: s.Mean, scale: s.Scale, x: s.X, y: s.Y}, nil
}

// Fit stores the (scaled) training set.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("knn: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	d := len(x[0])
	r.mean = make([]float64, d)
	r.scale = make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			r.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range r.mean {
		r.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			dv := v - r.mean[j]
			r.scale[j] += dv * dv
		}
	}
	for j := range r.scale {
		r.scale[j] = math.Sqrt(r.scale[j] / n)
		if floats.Zero(r.scale[j]) {
			r.scale[j] = 1 // constant feature: contributes nothing
		}
	}
	r.x = make([][]float64, len(x))
	for i, row := range x {
		s := make([]float64, d)
		for j, v := range row {
			s[j] = (v - r.mean[j]) / r.scale[j]
		}
		r.x[i] = s
	}
	r.y = append([]float64(nil), y...)
	return nil
}

// Predict returns the mean running time of the K nearest training samples
// (of all of them when there are fewer).
func (r *Regressor) Predict(x []float64) float64 {
	if len(r.x) == 0 {
		return math.NaN()
	}
	q := make([]float64, len(x))
	for j, v := range x {
		q[j] = (v - r.mean[j]) / r.scale[j]
	}
	k := min(K, len(r.x))
	// Track the k smallest distances with a simple bounded insertion —
	// k is at most 5, so this beats sorting all n distances.
	type cand struct {
		d float64
		y float64
	}
	best := make([]cand, 0, k)
	worst := math.Inf(1)
	for i, row := range r.x {
		d := 0.0
		for j := range q {
			dv := q[j] - row[j]
			d += dv * dv
		}
		if len(best) < k {
			best = append(best, cand{d, r.y[i]})
			if len(best) == k {
				sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
				worst = best[k-1].d
			}
			continue
		}
		if d >= worst {
			continue
		}
		// Insert in order, dropping the current worst.
		pos := sort.Search(k, func(a int) bool { return best[a].d > d })
		copy(best[pos+1:], best[pos:k-1])
		best[pos] = cand{d, r.y[i]}
		worst = best[k-1].d
	}
	sum := 0.0
	for _, c := range best {
		sum += c.y
	}
	return sum / float64(len(best))
}
