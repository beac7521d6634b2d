package main

import (
	"fmt"
	"strings"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/mpilib"
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
		d, err := c.dataset(dn)
		if err != nil {
			return "", err
		}
		mach, set, err := c.resolved(d)
		if err != nil {
			return "", err
		}
		split, err := eval.SplitFor(d.Spec.Machine)
		if err != nil {
			return "", err
		}
		paper, err := core.Train(d, set, "xgboost", split.Full)
		if err != nil {
			return "", err
		}
		ratio, err := core.TrainRatio(d, mach, set, "xgboost", split.Full)
		if err != nil {
			return "", err
		}
		clf, err := core.TrainClassifier(d, set, split.Full, 5)
		if err != nil {
			return "", err
		}
		var test []dataset.Instance
		var qs []mpilib.Query
		for _, in := range d.Instances() {
			for _, tn := range split.Test {
				if in.Nodes == tn {
					topo, err := mach.Topo(in.Nodes, in.PPN)
					if err != nil {
						return "", err
					}
					test = append(test, in)
					qs = append(qs, mpilib.Query{Topo: topo, M: in.Msize})
					break
				}
			}
		}
		defaults := set.DecideAll(mach, qs)
		for i, strat := range []core.Strategy{paper, ratio, clf} {
			spSum, vbSum, n := 0.0, 0.0, 0
			for j, in := range test {
				pred := strat.Select(in.Nodes, in.PPN, in.Msize)
				predT, ok := d.Lookup(pred.ConfigID, in.Nodes, in.PPN, in.Msize)
				if !ok {
					return "", fmt.Errorf("strategy %s selected unmeasured config %d", strat.Name(), pred.ConfigID)
				}
				defT, _ := d.Lookup(defaults[j], in.Nodes, in.PPN, in.Msize)
				_, bestT, _ := d.Best(set, in.Nodes, in.PPN, in.Msize)
				spSum += defT / predT
				vbSum += predT / bestT
				n++
			}
			rows[i].speedup[dn] = spSum / float64(n)
			rows[i].vsBest[dn] = vbSum / float64(n)
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
	_, set, err := c.resolved(d)
	if err != nil {
		return "", err
	}
	split, err := eval.SplitFor(d.Spec.Machine)
	if err != nil {
		return "", err
	}
	for _, learner := range append(c.learners, "rf", "linear") {
		sel, err := core.Train(d, set, learner, split.Full)
		if err != nil {
			return "", err
		}
		me, err := eval.ModelError(d, set, sel, split.Test)
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
		_, set, err := c.resolved(d)
		if err != nil {
			return "", err
		}
		split, err := eval.SplitFor(d.Spec.Machine)
		if err != nil {
			return "", err
		}
		sel, err := core.Train(d, set, "gam", split.Full)
		if err != nil {
			return "", err
		}
		imp, err := eval.PermutationImportance(d, set, sel, split.Test)
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
