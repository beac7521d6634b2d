package main

import (
	"fmt"
	"strings"

	"mpicollpred/internal/core"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/tablefmt"
)

// runStrategies compares the paper's argmin-of-runtime-regressors against
// the two selection strategies §III-A discusses and rejects: the prior-work
// ratio-to-default regression [9] and direct best-algorithm classification.
func runStrategies(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title:   "Selection-strategy ablation (SecIII-A): mean speedup over default / mean vs best",
		Headers: []string{"strategy", "d1 speedup", "d1 vs-best", "d2 speedup", "d2 vs-best"},
	}
	type scored struct {
		name    string
		speedup map[string]float64
		vsBest  map[string]float64
	}
	rows := []scored{
		{name: "argmin-runtime (paper, XGBoost)", speedup: map[string]float64{}, vsBest: map[string]float64{}},
		{name: "ratio-to-default ([9], XGBoost)", speedup: map[string]float64{}, vsBest: map[string]float64{}},
		{name: "direct classification (5-NN)", speedup: map[string]float64{}, vsBest: map[string]float64{}},
	}
	for _, dn := range []string{"d1", "d2"} {
		paper, err := c.evaluation(dn, "xgboost", "full")
		if err != nil {
			return "", err
		}
		d, err := c.dataset(dn)
		if err != nil {
			return "", err
		}
		mach, set, err := c.resolved(d)
		if err != nil {
			return "", err
		}
		ratio, err := core.TrainRatio(d, mach, set, "xgboost", paper.TrainNodes)
		if err != nil {
			return "", err
		}
		clf, err := core.TrainClassifier(d, set, paper.TrainNodes, 5)
		if err != nil {
			return "", err
		}
		evs := []*eval.Evaluation{paper}
		for _, strat := range []core.Strategy{ratio, clf} {
			ev, err := eval.Score(d, mach, set, strat, paper.TestNodes)
			if err != nil {
				return "", fmt.Errorf("strategy %s: %w", strat.Name(), err)
			}
			evs = append(evs, ev)
		}
		for i, ev := range evs {
			rows[i].speedup[dn] = ev.MeanSpeedup()
			rows[i].vsBest[dn] = ev.MeanVsBest()
		}
	}
	for _, r := range rows {
		t.AddRow(r.name,
			tablefmt.F(r.speedup["d1"], 2), tablefmt.F(r.vsBest["d1"], 2),
			tablefmt.F(r.speedup["d2"], 2), tablefmt.F(r.vsBest["d2"], 2))
	}
	out := t.String()
	out += "\n\"vs best\" is the mean measured time of the selected configuration normalized to\n" +
		"the exhaustive best (1.00 = always optimal). The paper's strategy should dominate\n" +
		"or match the rejected alternatives, which motivated its design.\n"
	return out, nil
}

// runModelErr reports the classical regression metrics the paper mentions
// (MAE/RMSE) plus MAPE, per learner on d1's held-out instances.
func runModelErr(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title:   "Model error on held-out instances (d1, all configurations x test instances)",
		Headers: []string{"method", "MAE", "RMSE", "MAPE", "#predictions"},
	}
	d, err := c.dataset("d1")
	if err != nil {
		return "", err
	}
	for _, learner := range append(c.learners, "rf", "linear") {
		e, err := c.evaluation("d1", learner, "full")
		if err != nil {
			return "", err
		}
		me, err := eval.ModelError(d, e.Selector, e.TestNodes)
		if err != nil {
			return "", err
		}
		t.AddRow(learnerLabel(learner),
			fmt.Sprintf("%.1f us", me.MAE*1e6),
			fmt.Sprintf("%.1f us", me.RMSE*1e6),
			tablefmt.F(me.MAPE, 3),
			tablefmt.I(me.N))
	}
	return t.String(), nil
}

// runCrossVal reports k-fold cross-validation (grouped by node count, the
// deployment-faithful split) for the three paper learners on d1.
func runCrossVal(c *expCtx) (string, error) {
	d, err := c.dataset("d1")
	if err != nil {
		return "", err
	}
	t := &tablefmt.Table{
		Title:   "4-fold cross-validation by node count, d1 (prediction MAPE per fold)",
		Headers: []string{"method", "fold 1", "fold 2", "fold 3", "fold 4", "mean"},
	}
	for _, learner := range c.learners {
		folds, err := eval.CrossValidate(d, learner, 4)
		if err != nil {
			return "", err
		}
		row := []string{learnerLabel(learner)}
		for _, f := range folds {
			row = append(row, tablefmt.F(f.MAPE, 3))
		}
		for len(row) < 5 {
			row = append(row, "-")
		}
		row = append(row, tablefmt.F(eval.MeanMAPE(folds), 3))
		t.AddRow(row...)
	}
	out := t.String()
	out += "\nstable fold errors indicate the models do not overfit particular node counts,\n" +
		"the check the paper describes performing during model building (SecV).\n"
	return out, nil
}

// runImportance reports permutation feature importance of the GAM selector
// on d1, reproducing the paper's remark that message size dominates.
func runImportance(c *expCtx) (string, error) {
	var b strings.Builder
	for _, dn := range []string{"d1", "d2"} {
		d, err := c.dataset(dn)
		if err != nil {
			return "", err
		}
		e, err := c.evaluation(dn, "gam", "full")
		if err != nil {
			return "", err
		}
		imp, err := eval.PermutationImportance(d, e.Selector, e.TestNodes)
		if err != nil {
			return "", err
		}
		t := &tablefmt.Table{
			Title:   fmt.Sprintf("Permutation feature importance, %s (GAM selector):", dn),
			Headers: []string{"feature", "MAPE increase when scrambled"},
		}
		for _, f := range imp {
			t.AddRow(f.Feature, tablefmt.F(f.Degradation, 3))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString("degradation = increase in mean absolute percentage prediction error when the feature\n" +
		"is permuted across test instances; the paper notes message size is usually dominant.\n")
	return b.String(), nil
}
