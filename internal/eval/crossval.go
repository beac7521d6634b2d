package eval

import (
	"fmt"
	"sort"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/ml"
)

// FoldResult is one fold of a cross-validation: the prediction error of
// per-configuration models trained on the remaining folds.
type FoldResult struct {
	Fold     int
	HeldOut  []int // node counts held out in this fold
	MAPE     float64
	NumPreds int
}

// CrossValidate performs k-fold cross-validation by node count, the
// grouping that matches the paper's deployment (models are always applied
// to unseen node counts, so random sample-level folds would leak). The
// paper notes that "while generating our regression models ... we have
// continuously monitored our errors on the training and test datasets to
// avoid overfitting"; this is the programmatic version of that check.
func CrossValidate(ds *dataset.Dataset, learner string, k int) ([]FoldResult, error) {
	if _, err := ml.New(learner); err != nil {
		return nil, err
	}
	nodes := append([]int(nil), ds.Spec.Nodes...)
	sort.Ints(nodes)
	if k < 2 {
		k = 2
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	_, set, err := ds.Spec.Resolve()
	if err != nil {
		return nil, err
	}

	var out []FoldResult
	for fold := 0; fold < k; fold++ {
		var train, held []int
		for i, n := range nodes {
			if i%k == fold {
				held = append(held, n)
			} else {
				train = append(train, n)
			}
		}
		if len(held) == 0 || len(train) == 0 {
			continue
		}
		sel, err := core.Train(ds, set, learner, train)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", fold, err)
		}
		me := modelErrors(ds, sel, ds.InstancesOn(held), nil)
		if me.N == 0 {
			return nil, fmt.Errorf("eval: fold %d has no measurable predictions", fold)
		}
		out = append(out, FoldResult{Fold: fold, HeldOut: held, MAPE: me.MAPE, NumPreds: me.N})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eval: cross-validation produced no folds")
	}
	return out, nil
}

// MeanMAPE aggregates fold errors.
func MeanMAPE(folds []FoldResult) float64 {
	s := 0.0
	for _, f := range folds {
		s += f.MAPE
	}
	return s / float64(len(folds))
}
