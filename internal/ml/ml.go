// Package ml defines the regression-learner interface of the tuning
// framework and builds the available learners: the three the paper settles
// on (XGBoost, GAM, KNN) and the ones it rejected but which remain useful
// for ablation (random forest, linear regression).
package ml

import (
	"fmt"

	"mpicollpred/internal/ml/gam"
	"mpicollpred/internal/ml/knn"
	"mpicollpred/internal/ml/linreg"
	"mpicollpred/internal/ml/rf"
	"mpicollpred/internal/ml/xgb"
)

// Regressor is a supervised learner predicting a positive running time from
// a feature vector.
type Regressor interface {
	// Fit trains on rows x (one feature vector per sample) and targets y
	// (running times, strictly positive).
	Fit(x [][]float64, y []float64) error
	// Predict returns the estimated running time for one feature vector.
	Predict(x []float64) float64
}

// New returns a fresh, unfitted regressor of the named kind, wrapped in the
// shared input validation. Every learner runs at its package's constant
// hyper-parameters, as in the paper (no tuning, by design).
func New(name string) (Regressor, error) {
	var r Regressor
	switch name {
	case "knn":
		r = knn.New()
	case "gam":
		r = gam.New()
	case "xgboost":
		r = xgb.New()
	case "rf":
		r = rf.New()
	case "linear":
		r = linreg.New()
	default:
		return nil, fmt.Errorf("ml: unknown learner %q (have %v)", name, Names())
	}
	return validated{r}, nil
}

// Names lists the learners New builds, sorted.
func Names() []string { return []string{"gam", "knn", "linear", "rf", "xgboost"} }

// validated wraps a learner with the shared input validation.
type validated struct {
	Regressor
}

func (v validated) Fit(x [][]float64, y []float64) error {
	if err := validate(x, y); err != nil {
		return err
	}
	return v.Regressor.Fit(x, y)
}

// Unwrap strips New's validation wrapper, exposing the concrete learner
// underneath — the snapshot codec type-switches on it.
func Unwrap(r Regressor) Regressor {
	if v, ok := r.(validated); ok {
		return v.Regressor
	}
	return r
}

// Validated wraps a learner with the shared input validation, the same
// wrapper New applies; the snapshot codec re-wraps decoded learners so
// restored and freshly trained models behave identically.
func Validated(r Regressor) Regressor { return validated{r} }

func validate(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: bad training set: %d rows, %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return fmt.Errorf("ml: empty feature vectors")
	}
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), d)
		}
	}
	for i, v := range y {
		if !(v > 0) {
			return fmt.Errorf("ml: target %d is %g; running times must be positive", i, v)
		}
	}
	return nil
}
