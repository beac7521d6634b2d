// Package xgb implements gradient-boosted regression trees in the style of
// XGBoost: second-order (gradient/hessian) tree growth with L2-regularized
// leaf weights, shrinkage, and a log link. The paper trains for 200 rounds
// with the Tweedie objective ("since a regression based on linear models,
// as expected, did not work, we use the Tweedie regression; the Gamma
// regression also worked well").
package xgb

import (
	"fmt"
	"math"

	"mpicollpred/internal/ml/tree"
)

// The hyper-parameters are constants: the paper fits every learner
// "deliberately without hyper-parameter tuning", at 200 Tweedie rounds and
// XGBoost's defaults otherwise. Snapshots still carry them, in the slots
// the format has always had, and a decoder rejects any other value.
const (
	// Rounds is the number of boosting rounds; a fit stops earlier once a
	// round is a pure stump.
	Rounds = 200
	// Eta is the shrinkage applied to every tree's leaf values.
	Eta = 0.3
	// MaxDepth bounds each tree's depth; the root is depth 0.
	MaxDepth = 6
	// Lambda is the L2 regularization on leaf values.
	Lambda = 1.0
	// MinChild is the minimum hessian sum of a child.
	MinChild = 1e-6
	// Tweedie names the loss: Tweedie deviance with a log link, so raw
	// tree scores live on log-time scale and predictions are exp(score),
	// the key to targets spanning six orders of magnitude.
	Tweedie = "tweedie"
	// TweedieRho is the Tweedie variance power.
	TweedieRho = 1.5
)

// Regressor is a boosted ensemble.
type Regressor struct {
	base   float64 // initial raw score: log(mean y)
	forest tree.Forest
}

// New returns an unfitted XGBoost-style regressor.
func New() *Regressor { return &Regressor{} }

// State is the exported fitted-ensemble state, used by the snapshot codec.
type State struct {
	Base  float64
	Trees [][]tree.Node
}

// State exports the fitted ensemble.
func (r *Regressor) State() State {
	return State{Base: r.base, Trees: r.forest.State()}
}

// FromState rebuilds a fitted ensemble; tree.NewForest validates every
// tree's structure.
func FromState(s State) (*Regressor, error) {
	f, err := tree.NewForest(s.Trees)
	if err != nil {
		return nil, fmt.Errorf("xgb: snapshot: %w", err)
	}
	return &Regressor{base: s.Base, forest: f}, nil
}

// Fit trains the ensemble.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("xgb: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	for i, v := range y {
		if !(v > 0) {
			return fmt.Errorf("xgb: target %d = %g; must be positive for the Tweedie loss", i, v)
		}
	}
	n := len(x)
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	r.base = math.Log(mean)

	score := make([]float64, n) // raw (log-scale) predictions
	for i := range score {
		score[i] = r.base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	leaf := make([]float64, n) // leaf[i]: this round's tree at x[i]
	topt := tree.Options{MaxDepth: MaxDepth, Lambda: Lambda, MinChild: MinChild}
	sample := tree.NewSample(x, idx) // every round splits the same rows

	var forest tree.ForestBuilder
	for round := 0; round < Rounds; round++ {
		gradients(y, score, g, h)
		t := sample.BuildGradHess(g, h, topt, leaf)
		if err := forest.Add(t); err != nil {
			return fmt.Errorf("xgb: %w", err)
		}
		for i := range score {
			score[i] += Eta * leaf[i]
		}
		// Pure-stump round: the ensemble has converged; further rounds
		// only repeat the same shrinkage step.
		if len(t) == 1 && round > 0 && math.Abs(leaf[0]) < 1e-12 {
			break
		}
	}
	r.forest = forest.Forest()
	return nil
}

// gradients fills g and h with the Tweedie deviance's gradient and hessian
// at the current raw scores (log link).
func gradients(y, score, g, h []float64) {
	const rho = TweedieRho
	for i := range y {
		a := math.Exp((1 - rho) * score[i])
		b := math.Exp((2 - rho) * score[i])
		g[i] = -y[i]*a + b
		h[i] = -(1-rho)*y[i]*a + (2-rho)*b
	}
}

// Predict returns exp(raw score) for the feature vector.
func (r *Regressor) Predict(x []float64) float64 {
	return math.Exp(r.forest.Sum(x, r.base, Eta))
}

// NumTrees returns the number of boosted rounds actually performed.
func (r *Regressor) NumTrees() int { return r.forest.Len() }
