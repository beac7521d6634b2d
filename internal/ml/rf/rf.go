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

// The forest's hyper-parameters are constants: standard out-of-the-box
// settings, never tuned. Snapshots still carry them, in the slots the format
// has always had, and a decoder rejects any other value.
const (
	// NumTrees is the number of bagged trees.
	NumTrees = 100
	// MaxDepth bounds each tree's depth; the root is depth 0.
	MaxDepth = 20
	// MinLeaf is the minimum number of samples in a leaf.
	MinLeaf = 2
	// MTry is the snapshot's feature-subsampling slot. Its one value, 0,
	// means each split considers 2/3 of the d features, rounded up:
	// (2d+2)/3. With the paper's 3-4 feature vectors the classic d/3 rule
	// would leave a single feature per split, which decorrelates the trees
	// into noise.
	MTry = 0
	// Seed seeds the bootstrap samples and the feature subsampling.
	Seed = 1
)

// Regressor is a fitted forest.
type Regressor struct {
	forest tree.Forest
}

// New returns an unfitted forest.
func New() *Regressor { return &Regressor{} }

// State is the exported fitted-forest state, used by the snapshot codec.
type State struct {
	Trees [][]tree.Node
}

// State exports the fitted forest.
func (r *Regressor) State() State {
	return State{Trees: r.forest.State()}
}

// FromState rebuilds a fitted forest; tree.NewForest validates every tree's
// structure.
func FromState(s State) (*Regressor, error) {
	f, err := tree.NewForest(s.Trees)
	if err != nil {
		return nil, fmt.Errorf("rf: snapshot: %w", err)
	}
	return &Regressor{forest: f}, nil
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
	mtry := (2*len(x[0]) + 2) / 3 // see MTry
	rng := sim.NewRNG(sim.Seed(Seed, 0xF0537))
	var forest tree.ForestBuilder
	idx := make([]int, n)
	for t := 0; t < NumTrees; t++ {
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap sample
		}
		err := forest.Add(tree.BuildVariance(x, logy, idx, tree.Options{
			MaxDepth: MaxDepth,
			MinLeaf:  MinLeaf,
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
