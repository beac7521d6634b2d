package eval

import (
	"fmt"
	"math"
	"sort"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/sim"
)

// ModelErrors are classical regression-quality metrics of the per-config
// models on held-out instances. The paper mentions monitoring these during
// model building ("the prediction error of regression models would be
// analyzed by metrics like the MAE or the RMSE"), even though the HPC-level
// metric (speedup) is what ultimately matters.
type ModelErrors struct {
	MAE  float64 // mean absolute error, seconds
	RMSE float64 // root mean squared error, seconds
	MAPE float64 // mean absolute percentage error (0..inf, 0 is perfect)
	N    int
}

// ModelError computes prediction-error metrics of a trained selector's
// models over every (config, test instance) pair with a measurement.
func ModelError(ds *dataset.Dataset, sel *core.Selector, testNodes []int) (ModelErrors, error) {
	me := modelErrors(ds, sel, ds.InstancesOn(testNodes), nil)
	if me.N == 0 {
		return me, fmt.Errorf("eval: no test measurements for nodes %v", testNodes)
	}
	return me, nil
}

// modelErrors is the one prediction-error pass: every configuration model of
// sel against the measured times, over insts × PredictAllFeatures, skipping
// unmeasured pairs. tamper, when non-nil, edits instance i's feature vector
// before prediction (permutation importance). The sums accumulate in
// instance order, then ranking order; with no measured pair the metrics
// are zero.
func modelErrors(ds *dataset.Dataset, sel *core.Selector, insts []dataset.Instance, tamper func(i int, f []float64)) ModelErrors {
	var me ModelErrors
	var sqSum float64
	for i, in := range insts {
		f := core.Features(in.Nodes, in.PPN, in.Msize)
		if tamper != nil {
			tamper(i, f)
		}
		for _, pr := range sel.PredictAllFeatures(f) {
			meas, ok := ds.Lookup(pr.ConfigID, in.Nodes, in.PPN, in.Msize)
			if !ok {
				continue
			}
			diff := pr.Predicted - meas
			me.MAE += math.Abs(diff)
			sqSum += diff * diff
			me.MAPE += math.Abs(diff) / meas
			me.N++
		}
	}
	if me.N > 0 {
		me.MAE /= float64(me.N)
		me.RMSE = math.Sqrt(sqSum / float64(me.N))
		me.MAPE /= float64(me.N)
	}
	return me
}

// FeatureImportance reports permutation importance of one input feature for
// the regression models: how much the mean absolute percentage error of the
// per-configuration runtime predictions increases when the feature is
// scrambled across the test instances. The paper observes that "the message
// size turned out to be the most important factor in many cases".
type FeatureImportance struct {
	Feature string
	// Degradation is the MAPE increase under permutation; larger means the
	// models rely on the feature more.
	Degradation float64
}

// FeatureNames labels core.Features' vector entries.
func FeatureNames() []string { return []string{"log2(msize)", "nodes", "ppn", "log2(p)"} }

// PermutationImportance evaluates the models with each feature permuted by a
// seeded shuffle across the test instances.
func PermutationImportance(ds *dataset.Dataset, sel *core.Selector, testNodes []int) ([]FeatureImportance, error) {
	insts := ds.InstancesOn(testNodes)
	if len(insts) < 2 {
		return nil, fmt.Errorf("eval: not enough test instances")
	}
	// quality is the MAPE of every configuration model over the test
	// instances, with the feature vector optionally tampered before
	// prediction.
	quality := func(tamper func(i int, f []float64)) (float64, error) {
		me := modelErrors(ds, sel, insts, tamper)
		if me.N == 0 {
			return 0, fmt.Errorf("eval: no measured predictions")
		}
		return me.MAPE, nil
	}

	base, err := quality(nil)
	if err != nil {
		return nil, err
	}
	// A seeded Fisher-Yates shuffle; a structured rotation could align with
	// the sorted instance grid and leave some feature effectively
	// unpermuted.
	perm := make([]int, len(insts))
	for i := range perm {
		perm[i] = i
	}
	rng := sim.NewRNG(42)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	names := FeatureNames()
	out := make([]FeatureImportance, len(names))
	for j := range names {
		j := j
		q, err := quality(func(i int, f []float64) {
			other := insts[perm[i]]
			f[j] = core.Features(other.Nodes, other.PPN, other.Msize)[j]
		})
		if err != nil {
			return nil, err
		}
		out[j] = FeatureImportance{Feature: names[j], Degradation: q - base}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Degradation > out[b].Degradation })
	return out, nil
}
