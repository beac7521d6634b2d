package core

import (
	"fmt"
	"math"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/floats"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
)

// Strategy is a trained algorithm-selection policy: given an instance, pick
// a configuration. The paper's contribution (Selector) is one Strategy; this
// file implements the two alternatives the paper discusses and rejects in
// §III-A, so their weaknesses can be demonstrated rather than assumed:
//
//   - RatioSelector: the authors' earlier approach ([9], PMBS 2018) — regress
//     the *relative improvement* of each algorithm over the default strategy
//     and pick the largest predicted ratio. Its flaw: "algorithm 0" is not an
//     algorithm but a strategy, so the regression target behaves irregularly
//     across the feature space, and ratios live in (0, inf) which biases
//     split-based learners.
//   - ClassifierSelector: label every training instance with its best
//     configuration and predict the label directly. Its flaw: a few
//     configurations win almost everywhere, so the label distribution is
//     extremely skewed and rarely-best configurations are never predicted.
type Strategy interface {
	Name() string
	Select(nodes, ppn int, msize int64) Prediction
}

// Name implements Strategy for the paper's per-configuration selector.
func (s *Selector) Name() string { return "argmin-runtime (" + s.Learner + ")" }

var _ Strategy = (*Selector)(nil)

// RatioSelector predicts T(default)/T(config) per configuration and selects
// the configuration with the largest predicted ratio.
type RatioSelector struct {
	Learner string
	configs []mpilib.Config
	models  map[int]ml.Regressor
}

// TrainRatio fits the prior-work ratio models. The default strategy's
// measured time at each training instance is obtained through the library's
// decision logic, exactly as [9] did.
func TrainRatio(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	learner string, trainNodes []int) (*RatioSelector, error) {

	// Default times per training instance.
	train := ds.InstancesOn(trainNodes)
	qs := make([]mpilib.Query, len(train))
	for i, in := range train {
		topo, err := mach.Topo(in.Nodes, in.PPN)
		if err != nil {
			return nil, err
		}
		qs[i] = mpilib.Query{Topo: topo, M: in.Msize}
	}
	defT := map[dataset.Instance]float64{}
	for i, id := range set.DecideAll(mach, qs) {
		in := train[i]
		t, ok := ds.Lookup(id, in.Nodes, in.PPN, in.Msize)
		if !ok {
			return nil, fmt.Errorf("core: default config %d unmeasured for %+v", id, in)
		}
		defT[in] = t
	}

	sel := &RatioSelector{Learner: learner, configs: set.Selectable(), models: map[int]ml.Regressor{}}
	xs := map[int][][]float64{}
	ys := map[int][]float64{}
	for _, s := range ds.Samples {
		// Only training instances have a default time.
		d, ok := defT[dataset.Instance{Nodes: s.Nodes, PPN: s.PPN, Msize: s.Msize}]
		if !ok {
			continue
		}
		xs[s.ConfigID] = append(xs[s.ConfigID], Features(s.Nodes, s.PPN, s.Msize))
		ys[s.ConfigID] = append(ys[s.ConfigID], d/s.Time)
	}
	for _, cfg := range sel.configs {
		m, err := newLearner(learner)
		if err != nil {
			return nil, err
		}
		if len(xs[cfg.ID]) == 0 {
			return nil, fmt.Errorf("core: no ratio training data for config %d", cfg.ID)
		}
		if err := m.Fit(xs[cfg.ID], ys[cfg.ID]); err != nil {
			return nil, fmt.Errorf("core: ratio model for %s: %w", cfg.Label(), err)
		}
		sel.models[cfg.ID] = m
	}
	return sel, nil
}

// Name implements Strategy.
func (s *RatioSelector) Name() string { return "ratio-to-default (" + s.Learner + ")" }

// Select implements Strategy: argmax of the predicted improvement ratio.
func (s *RatioSelector) Select(nodes, ppn int, msize int64) Prediction {
	f := Features(nodes, ppn, msize)
	var best Prediction
	bestRatio := math.Inf(-1)
	for _, cfg := range s.configs {
		r := s.models[cfg.ID].Predict(f)
		if math.IsNaN(r) {
			continue
		}
		if r > bestRatio {
			bestRatio = r
			best = Prediction{ConfigID: cfg.ID, AlgID: cfg.AlgID, Label: cfg.Label(), Predicted: r}
		}
	}
	return best
}

var _ Strategy = (*RatioSelector)(nil)

// ClassifierSelector predicts the best configuration id directly with a
// nearest-neighbour vote over labeled training instances.
type ClassifierSelector struct {
	K       int
	mean    []float64
	scale   []float64
	x       [][]float64
	label   []int
	configs map[int]mpilib.Config
}

// TrainClassifier labels each training instance with its empirically best
// configuration and memorizes the labeled set.
func TrainClassifier(ds *dataset.Dataset, set *mpilib.CollectiveSet, trainNodes []int, k int) (*ClassifierSelector, error) {
	if k < 1 {
		k = 5
	}
	sel := &ClassifierSelector{K: k, configs: map[int]mpilib.Config{}}
	for _, cfg := range set.Selectable() {
		sel.configs[cfg.ID] = cfg
	}
	for _, in := range ds.InstancesOn(trainNodes) {
		id, _, ok := ds.Best(set, in.Nodes, in.PPN, in.Msize)
		if !ok {
			return nil, fmt.Errorf("core: no best for %+v", in)
		}
		sel.x = append(sel.x, Features(in.Nodes, in.PPN, in.Msize))
		sel.label = append(sel.label, id)
	}
	if len(sel.x) == 0 {
		return nil, fmt.Errorf("core: no training instances on nodes %v", trainNodes)
	}
	d := len(sel.x[0])
	sel.mean = make([]float64, d)
	sel.scale = make([]float64, d)
	for _, row := range sel.x {
		for j, v := range row {
			sel.mean[j] += v
		}
	}
	n := float64(len(sel.x))
	for j := range sel.mean {
		sel.mean[j] /= n
	}
	for _, row := range sel.x {
		for j, v := range row {
			dv := v - sel.mean[j]
			sel.scale[j] += dv * dv
		}
	}
	for j := range sel.scale {
		sel.scale[j] = math.Sqrt(sel.scale[j] / n)
		if floats.Zero(sel.scale[j]) {
			sel.scale[j] = 1
		}
	}
	for _, row := range sel.x {
		for j := range row {
			row[j] = (row[j] - sel.mean[j]) / sel.scale[j]
		}
	}
	return sel, nil
}

// Name implements Strategy.
func (s *ClassifierSelector) Name() string { return fmt.Sprintf("direct-classification (%d-NN)", s.K) }

// Select implements Strategy: majority label among the K nearest instances.
func (s *ClassifierSelector) Select(nodes, ppn int, msize int64) Prediction {
	f := Features(nodes, ppn, msize)
	for j := range f {
		f[j] = (f[j] - s.mean[j]) / s.scale[j]
	}
	type cand struct {
		d  float64
		id int
	}
	k := s.K
	if k > len(s.x) {
		k = len(s.x)
	}
	best := make([]cand, 0, k)
	for i, row := range s.x {
		d := 0.0
		for j := range f {
			dv := f[j] - row[j]
			d += dv * dv
		}
		if len(best) < k {
			best = append(best, cand{d, s.label[i]})
			continue
		}
		worst, wi := -1.0, -1
		for bi, c := range best {
			if c.d > worst {
				worst, wi = c.d, bi
			}
		}
		if d < worst {
			best[wi] = cand{d, s.label[i]}
		}
	}
	votes := map[int]int{}
	for _, c := range best {
		votes[c.id]++
	}
	bestID, bestVotes := 0, -1
	for id, v := range votes {
		if v > bestVotes || (v == bestVotes && id < bestID) {
			bestID, bestVotes = id, v
		}
	}
	cfg := s.configs[bestID]
	return Prediction{ConfigID: bestID, AlgID: cfg.AlgID, Label: cfg.Label()}
}

var _ Strategy = (*ClassifierSelector)(nil)
