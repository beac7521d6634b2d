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

// Objective selects the loss. All objectives use the log link, so raw tree
// scores live on log-time scale and predictions are exp(score) — the key to
// handling targets spanning six orders of magnitude.
type Objective string

const (
	// Tweedie is the paper's default objective (variance power rho).
	Tweedie Objective = "tweedie"
	// Gamma deviance; the paper notes it "also worked well".
	Gamma Objective = "gamma"
	// SquaredLog is plain squared error on log targets, for ablation.
	SquaredLog Objective = "squaredlog"
)

// Options are the out-of-the-box hyper-parameters (no tuning, per the
// paper's philosophy).
type Options struct {
	Rounds     int
	Eta        float64
	MaxDepth   int
	Lambda     float64
	MinChild   float64
	Objective  Objective
	TweedieRho float64
}

// DefaultOptions mirrors the paper's setup: 200 rounds, Tweedie objective,
// XGBoost defaults otherwise.
func DefaultOptions() Options {
	return Options{
		Rounds:     200,
		Eta:        0.3,
		MaxDepth:   6,
		Lambda:     1.0,
		MinChild:   1e-6,
		Objective:  Tweedie,
		TweedieRho: 1.5,
	}
}

// Regressor is a boosted ensemble.
type Regressor struct {
	opts   Options
	base   float64 // initial raw score: log(mean y)
	forest tree.Forest
}

// New returns an XGBoost-style regressor with the paper's defaults.
func New() *Regressor { return &Regressor{opts: DefaultOptions()} }

// NewWith returns a regressor with explicit options.
func NewWith(opts Options) *Regressor {
	if opts.Rounds < 1 {
		opts.Rounds = 1
	}
	return &Regressor{opts: opts}
}

// State is the exported fitted-ensemble state, used by the snapshot codec.
type State struct {
	Opts  Options
	Base  float64
	Trees [][]tree.Node
}

// State exports the fitted ensemble.
func (r *Regressor) State() State {
	return State{Opts: r.opts, Base: r.base, Trees: r.forest.State()}
}

// FromState rebuilds a fitted ensemble; tree.NewForest validates every
// tree's structure.
func FromState(s State) (*Regressor, error) {
	f, err := tree.NewForest(s.Trees)
	if err != nil {
		return nil, fmt.Errorf("xgb: snapshot: %w", err)
	}
	return &Regressor{opts: s.Opts, base: s.Base, forest: f}, nil
}

// Fit trains the ensemble.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("xgb: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	for i, v := range y {
		if !(v > 0) {
			return fmt.Errorf("xgb: target %d = %g; must be positive for the %s objective", i, v, r.opts.Objective)
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
	topt := tree.Options{MaxDepth: r.opts.MaxDepth, Lambda: r.opts.Lambda, MinChild: r.opts.MinChild}
	sample := tree.NewSample(x, idx) // every round splits the same rows

	var forest tree.ForestBuilder
	for round := 0; round < r.opts.Rounds; round++ {
		r.gradients(y, score, g, h)
		t := sample.BuildGradHess(g, h, topt, leaf)
		if err := forest.Add(t); err != nil {
			return fmt.Errorf("xgb: %w", err)
		}
		for i := range score {
			score[i] += r.opts.Eta * leaf[i]
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

// gradients fills g and h for the configured objective at the current raw
// scores (log link).
func (r *Regressor) gradients(y, score, g, h []float64) {
	switch r.opts.Objective {
	case Tweedie:
		rho := r.opts.TweedieRho
		for i := range y {
			a := math.Exp((1 - rho) * score[i])
			b := math.Exp((2 - rho) * score[i])
			g[i] = -y[i]*a + b
			h[i] = -(1-rho)*y[i]*a + (2-rho)*b
		}
	case Gamma:
		for i := range y {
			e := y[i] * math.Exp(-score[i])
			g[i] = 1 - e
			h[i] = e
		}
	default: // SquaredLog
		for i := range y {
			g[i] = score[i] - math.Log(y[i])
			h[i] = 1
		}
	}
}

// Predict returns exp(raw score) for the feature vector.
func (r *Regressor) Predict(x []float64) float64 {
	return math.Exp(r.forest.Sum(x, r.base, r.opts.Eta))
}

// NumTrees returns the number of boosted rounds actually performed.
func (r *Regressor) NumTrees() int { return r.forest.Len() }
