// Package rf implements a random-forest regressor on log running times.
// Random forests were the learner of the authors' earlier work ([9],
// PMBS 2018); the paper found them weaker than XGBoost/GAM/KNN on larger
// dataset collections, so this implementation exists for the ablation
// benchmarks that reproduce that comparison.
package rf

import (
	"fmt"
	"math"

	"mpicollpred/internal/ml/tree"
	"mpicollpred/internal/sim"
)

// Options controls the forest.
type Options struct {
	NumTrees int
	MaxDepth int
	MinLeaf  int
	// MTry features per split; 0 = d/3 (regression default).
	MTry int
	Seed uint64
}

// DefaultOptions returns standard out-of-the-box forest settings.
func DefaultOptions() Options {
	return Options{NumTrees: 100, MaxDepth: 20, MinLeaf: 2, Seed: 1}
}

// Regressor is a fitted forest.
type Regressor struct {
	opts   Options
	forest tree.Forest
}

// New returns a forest with default options.
func New() *Regressor { return &Regressor{opts: DefaultOptions()} }

// NewWith returns a forest with explicit options.
func NewWith(opts Options) *Regressor {
	if opts.NumTrees < 1 {
		opts.NumTrees = 1
	}
	return &Regressor{opts: opts}
}

// State is the exported fitted-forest state, used by the snapshot codec.
type State struct {
	Opts  Options
	Trees [][]tree.Node
}

// State exports the fitted forest.
func (r *Regressor) State() State {
	return State{Opts: r.opts, Trees: r.forest.State()}
}

// FromState rebuilds a fitted forest; tree.NewForest validates every tree's
// structure.
func FromState(s State) (*Regressor, error) {
	f, err := tree.NewForest(s.Trees)
	if err != nil {
		return nil, fmt.Errorf("rf: snapshot: %w", err)
	}
	return &Regressor{opts: s.Opts, forest: f}, nil
}

// Fit trains the forest on log targets (bagging + feature subsampling).
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("rf: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	logy := make([]float64, len(y))
	for i, v := range y {
		if !(v > 0) {
			return fmt.Errorf("rf: target %d = %g; must be positive", i, v)
		}
		logy[i] = math.Log(v)
	}
	n := len(x)
	mtry := r.opts.MTry
	if mtry <= 0 {
		// 2/3 of the features: with the paper's 3-4 feature vectors the
		// classic d/3 rule would leave a single feature per split, which
		// decorrelates the trees into noise.
		mtry = (2*len(x[0]) + 2) / 3
	}
	rng := sim.NewRNG(sim.Seed(r.opts.Seed, 0xF0537))
	var forest tree.ForestBuilder
	idx := make([]int, n)
	for t := 0; t < r.opts.NumTrees; t++ {
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap sample
		}
		err := forest.Add(tree.BuildVariance(x, logy, idx, tree.Options{
			MaxDepth: r.opts.MaxDepth,
			MinLeaf:  r.opts.MinLeaf,
			MTry:     mtry,
			RNG:      rng,
		}))
		if err != nil {
			return fmt.Errorf("rf: %w", err)
		}
	}
	r.forest = forest.Forest()
	return nil
}

// Predict returns exp(mean of the trees' log-time predictions).
func (r *Regressor) Predict(x []float64) float64 {
	if r.forest.Len() == 0 {
		return math.NaN()
	}
	return math.Exp(r.forest.Sum(x, 0, 1) / float64(r.forest.Len()))
}
