// Incremental refitting: the online-retraining loop re-measures the grid
// cells a drifted model serves and needs only those configurations refit —
// retraining the whole selector would redo work on models whose data did
// not change and would lose their bit-exact identity. Refit clones a
// trained selector, refits exactly the listed configurations from the
// (updated) dataset, and reassembles the guardrail state, with the same
// worker-count-independence guarantee as Train: the candidate's
// snapshot bytes depend only on the inputs, never on worker count or
// scheduling.

package core

import (
	"cmp"
	"fmt"
	"slices"

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
// Determinism: fits fan out on GOMAXPROCS goroutines but are committed in ascending configuration-id order on this goroutine,
// and the union envelope is rebuilt by a min/max merge over the portfolio
// in selectable order — the candidate is bit-identical across worker
// counts.
func Refit(base *Selector, ds *dataset.Dataset, set *mpilib.CollectiveSet, configIDs []int) (*Selector, error) {
	if base == nil {
		return nil, fmt.Errorf("core: refit: nil base selector")
	}
	if len(configIDs) == 0 {
		return nil, fmt.Errorf("core: refit: no configurations listed")
	}
	if _, err := newLearner(base.Learner); err != nil {
		return nil, err
	}

	// Dedupe and order the refit set; every id must be in the selectable
	// portfolio (excluded or unknown ids have no model to refit).
	selectable := map[int]mpilib.Config{}
	for _, cfg := range set.Selectable() {
		selectable[cfg.ID] = cfg
	}
	inSet := map[int]bool{}
	for _, id := range configIDs {
		if _, ok := selectable[id]; !ok {
			return nil, fmt.Errorf("core: refit: configuration %d is not selectable", id)
		}
		inSet[id] = true
	}
	cfgs := make([]mpilib.Config, 0, len(inSet))
	for id := range inSet {
		cfgs = append(cfgs, selectable[id])
	}
	slices.SortFunc(cfgs, func(a, b mpilib.Config) int { return cmp.Compare(a.ID, b.ID) })

	cand := &Selector{
		Coll:       base.Coll,
		Learner:    base.Learner,
		TrainNodes: append([]int(nil), base.TrainNodes...),
		models:     make(map[int]ml.Regressor),
		envelopes:  make(map[int]Envelope),
		selectHist: base.selectHist,
		fbMach:     base.fbMach,
		fbSet:      base.fbSet,
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

	if err := cand.fitConfigs(ds, cfgs, "refit"); err != nil {
		return nil, err
	}
	refit := 0
	for _, cfg := range cfgs {
		if _, ok := cand.models[cfg.ID]; ok {
			refit++
		}
	}
	obs.Default.Counter("core_refit_total", obs.Labels{"learner": base.Learner}).Add(int64(refit))
	return cand, nil
}
