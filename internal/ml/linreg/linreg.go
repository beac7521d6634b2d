// Package linreg implements ordinary least squares on log running times —
// the learner the paper reports as failing ("a regression based on linear
// models, as expected, did not work"). It is kept as the ablation baseline
// that demonstrates why the non-linear learners are necessary.
package linreg

import (
	"fmt"
	"math"

	"mpicollpred/internal/ml/linalg"
)

// Regressor is a fitted linear model on the log-time scale.
type Regressor struct {
	beta []float64 // intercept first
}

// New returns an OLS regressor.
func New() *Regressor { return &Regressor{} }

// State is the exported fitted-model state, used by the snapshot codec.
type State struct {
	Beta []float64
}

// State exports the fitted model.
func (r *Regressor) State() State { return State{Beta: r.beta} }

// FromState rebuilds a fitted model.
func FromState(s State) (*Regressor, error) {
	if len(s.Beta) < 1 {
		return nil, fmt.Errorf("linreg: snapshot has no coefficients")
	}
	return &Regressor{beta: s.Beta}, nil
}

// Fit solves the normal equations for log(y) ~ 1 + x.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	d := len(x[0])
	design := linalg.New(len(x), d+1)
	for i, row := range x {
		dr := design.Row(i)
		dr[0] = 1
		copy(dr[1:], row)
	}
	logy := make([]float64, len(y))
	for i, v := range y {
		logy[i] = math.Log(v)
	}
	a := design.AtA(nil)
	b := design.AtV(logy, nil)
	beta, err := linalg.SolveSPD(a, b)
	if err != nil {
		return fmt.Errorf("linreg: %w", err)
	}
	r.beta = beta
	return nil
}

// Predict returns exp(beta0 + beta·x).
func (r *Regressor) Predict(x []float64) float64 {
	if r.beta == nil {
		return math.NaN()
	}
	eta := r.beta[0]
	for j, v := range x {
		eta += r.beta[j+1] * v
	}
	if eta > 30 {
		eta = 30
	}
	return math.Exp(eta)
}
