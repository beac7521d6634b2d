// Incremental refitting: the online-retraining loop re-measures the grid
// cells a drifted model serves and needs only those configurations refit —
// retraining the whole selector would redo work on models whose data did
// not change and would lose their bit-exact identity. Refit clones a
// trained selector, refits exactly the listed configurations from the
// (updated) dataset, and reassembles the guardrail state, with the same
// worker-count-independence guarantee as TrainPool: the candidate's
// snapshot bytes depend only on the inputs, never on pool size or
// scheduling.

package core

import (
	"errors"
	"fmt"
	"sort"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
)

// Refit returns a new selector that predicts like base except for the
// listed configurations, whose models are refit from ds over base's
// training node counts. Untouched models are shared with base (regressors
// are immutable after Fit), so a refit of k configurations costs k fits
// regardless of portfolio size. A configuration that was quarantined in
// base and refits cleanly here rejoins selection; one whose learner panics
// again is quarantined in the candidate. base itself is never mutated.
//
// Determinism: fits fan out on pool but are committed in ascending
// configuration-id order on this goroutine, and the union envelope is
// rebuilt by a min/max merge over the portfolio in selectable order —
// the candidate is bit-identical across pool sizes.
func Refit(base *Selector, ds *dataset.Dataset, set *mpilib.CollectiveSet, configIDs []int, pool *FitPool) (*Selector, error) {
	if base == nil {
		return nil, fmt.Errorf("core: refit: nil base selector")
	}
	if len(configIDs) == 0 {
		return nil, fmt.Errorf("core: refit: no configurations listed")
	}
	if _, err := ml.New(base.Learner); err != nil {
		return nil, err
	}

	// Dedupe and order the refit set; every id must be in the selectable
	// portfolio (excluded or unknown ids have no model to refit).
	selectable := map[int]bool{}
	for _, cfg := range set.Selectable() {
		selectable[cfg.ID] = true
	}
	inSet := map[int]bool{}
	for _, id := range configIDs {
		if !selectable[id] {
			return nil, fmt.Errorf("core: refit: configuration %d is not selectable", id)
		}
		inSet[id] = true
	}
	ids := make([]int, 0, len(inSet))
	for id := range inSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	inTrain := map[int]bool{}
	for _, n := range base.TrainNodes {
		inTrain[n] = true
	}
	xs := map[int][][]float64{}
	ys := map[int][]float64{}
	for _, s := range ds.Samples {
		if !inSet[s.ConfigID] || !inTrain[s.Nodes] {
			continue
		}
		xs[s.ConfigID] = append(xs[s.ConfigID], Features(s.Nodes, s.PPN, s.Msize))
		ys[s.ConfigID] = append(ys[s.ConfigID], s.Time)
	}
	for _, id := range ids {
		if len(xs[id]) == 0 {
			return nil, fmt.Errorf("core: refit: configuration %d has no training samples on nodes %v",
				id, base.TrainNodes)
		}
	}

	cand := &Selector{
		Coll:              base.Coll,
		Learner:           base.Learner,
		TrainNodes:        append([]int(nil), base.TrainNodes...),
		PlausibilitySlack: base.PlausibilitySlack,
		models:            make(map[int]ml.Regressor),
		envelopes:         make(map[int]Envelope),
		selectHist:        base.selectHist,
		fbMach:            base.fbMach,
		fbSet:             base.fbSet,
	}
	cand.setConfigs(set.Selectable())

	// Carry over every model and envelope that is not being refit, and
	// every quarantine record except the ones the refit may clear.
	base.mu.RLock()
	for id, m := range base.models {
		if !inSet[id] {
			cand.models[id] = m
		}
	}
	for id, reason := range base.quarantined {
		if !inSet[id] {
			if cand.quarantined == nil {
				cand.quarantined = map[int]string{}
			}
			cand.quarantined[id] = reason
		}
	}
	base.mu.RUnlock()
	for id, env := range base.envelopes {
		if !inSet[id] {
			cand.envelopes[id] = env
		}
	}

	if pool == nil {
		pool = DefaultFitPool()
	}
	fitHist := obs.Default.Histogram("core_fit_seconds", obs.Labels{"learner": base.Learner})

	results := pool.fitAll(base.Learner, len(ids), func(i int) ([][]float64, []float64) {
		return xs[ids[i]], ys[ids[i]]
	})

	for i, id := range ids {
		res := results[i]
		if res.err != nil {
			if errors.Is(res.err, errLearnerPanic) {
				cand.quarantine(id, "refit", res.err.Error())
				continue
			}
			return nil, fmt.Errorf("core: refitting %s for config %d: %w", base.Learner, id, res.err)
		}
		cand.FitWall += res.wall
		fitHist.Observe(res.wall)
		cand.models[id] = res.m
		cand.envelopes[id] = res.env
		obs.Default.Counter("core_refit_total", obs.Labels{"learner": base.Learner}).Inc()
	}

	// The union envelope cannot be widened incrementally — a refit model's
	// envelope may have shrunk — so rebuild it from the per-configuration
	// envelopes. Min/max merging is order-independent; iterating in
	// selectable order just keeps the loop deterministic by construction.
	cand.envelope = Envelope{}
	for _, cfg := range cand.configs {
		if env, ok := cand.envelopes[cfg.ID]; ok {
			cand.envelope.merge(env)
		}
	}
	return cand, nil
}

// RefitAll is Refit over every selectable configuration — a full retrain
// that preserves base's guardrail arming and slack settings.
func RefitAll(base *Selector, ds *dataset.Dataset, set *mpilib.CollectiveSet, pool *FitPool) (*Selector, error) {
	ids := make([]int, 0, len(set.Selectable()))
	for _, cfg := range set.Selectable() {
		ids = append(ids, cfg.ID)
	}
	return Refit(base, ds, set, ids, pool)
}
