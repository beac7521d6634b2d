package main

import (
	"fmt"
	"strings"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/tablefmt"
)

// runTable1 renders the hardware overview (paper Table I) from the machine
// profiles, including the simulated network constants that substitute for
// the real interconnects.
func runTable1(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title: "Table I: Hardware overview (simulated machine models)",
		Headers: []string{"Machine", "n", "Max ppn", "Inter latency", "Node BW", "Stream BW",
			"Eager", "MPI libraries"},
	}
	libs := map[string]string{
		"Hydra":       "Open MPI 4.0.2, Intel MPI 2019",
		"Jupiter":     "Open MPI 4.0.2",
		"SuperMUC-NG": "Open MPI 4.0.2",
	}
	for _, m := range machine.All() {
		t.AddRow(
			m.Name,
			tablefmt.I(m.MaxN),
			tablefmt.I(m.MaxPPN),
			fmt.Sprintf("%.2f us", m.Net.LInter*1e6),
			fmt.Sprintf("%.1f GB/s", 1e-9/m.Net.GNic),
			fmt.Sprintf("%.1f GB/s", 1e-9/m.Net.GInter),
			tablefmt.Bytes(int64(m.Net.Eager)),
			libs[m.Name],
		)
	}
	return t.String(), nil
}

// runTable2 renders the dataset overview (paper Table II) from the cached
// (or freshly generated) datasets.
func runTable2(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title: "Table II: Overview of datasets",
		Headers: []string{"Dataset", "MPI routine", "MPI", "Version", "Machine",
			"#algorithms", "#configs", "#nodes", "#ppn", "#msg sizes", "#samples"},
	}
	for _, spec := range dataset.Specs(c.scale) {
		d, err := c.dataset(spec.Name)
		if err != nil {
			return "", err
		}
		_, set, err := c.resolved(d)
		if err != nil {
			return "", err
		}
		t.AddRow(
			d.Spec.Name,
			"MPI_"+collectiveName(d.Spec.Coll),
			d.Spec.Lib,
			d.Spec.Version,
			d.Spec.Machine,
			tablefmt.I(set.NumAlgs()),
			tablefmt.I(len(set.Configs)),
			tablefmt.I(len(d.Spec.Nodes)),
			tablefmt.I(len(d.Spec.PPNs)),
			tablefmt.I(len(d.Spec.Msizes)),
			tablefmt.I(len(d.Samples)),
		)
	}
	return t.String(), nil
}

// runTable3 renders the train/test node splits (paper Table III).
func runTable3(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title:   "Table III: Training and test datasets by machine and number of compute nodes",
		Headers: []string{"Machine", "Full training dataset (n)", "Small training dataset (n)", "Test dataset (n)"},
	}
	for _, s := range eval.Splits() {
		t.AddRow(s.Machine, intList(s.Full), intList(s.Small), intList(s.Test))
	}
	return t.String(), nil
}

// collectiveName capitalizes a collective's MPI routine name.
func collectiveName(coll string) string {
	if coll == "" {
		return coll
	}
	return strings.ToUpper(coll[:1]) + coll[1:]
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ", ")
}

// runTable4 renders one half of the paper's Table IV: the mean speedup of
// the predicted configuration over the library default, per dataset and
// learner.
func runTable4(c *expCtx, variant string) (string, error) {
	title := "Table IVa: Overall prediction quality, large training dataset (relative speed-up over default; higher is better)"
	if variant == "small" {
		title = "Table IVb: Overall prediction quality, small training dataset"
	}
	headers := []string{"method"}
	names := datasetNames()
	headers = append(headers, names...)
	headers = append(headers, "mean")
	t := &tablefmt.Table{Title: title, Headers: headers}

	for _, learner := range c.learners {
		row := []string{learnerLabel(learner)}
		sum := 0.0
		for _, dn := range names {
			e, err := c.evaluation(dn, learner, variant)
			if err != nil {
				return "", fmt.Errorf("%s/%s: %w", dn, learner, err)
			}
			sp := e.MeanSpeedup()
			sum += sp
			row = append(row, tablefmt.F(sp, 2))
		}
		row = append(row, tablefmt.F(sum/float64(len(names)), 2))
		t.AddRow(row...)
	}
	return t.String(), nil
}

func runTable4a(c *expCtx) (string, error) { return runTable4(c, "full") }
func runTable4b(c *expCtx) (string, error) { return runTable4(c, "small") }

func datasetNames() []string {
	return []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"}
}

func learnerLabel(l string) string {
	switch l {
	case "knn":
		return "KNN"
	case "gam":
		return "GAM"
	case "xgboost":
		return "XGBoost"
	case "rf":
		return "RF"
	case "linear":
		return "Linear"
	}
	return l
}

// runBudget reproduces the paper's §V training-budget argument: the a
// priori upper bound on the benchmarking time (#measurements × per-config
// budget) versus the actually consumed simulated time. The same accounting
// is pushed into the metrics registry so a -metrics snapshot carries the
// per-dataset totals.
func runBudget(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title: "Benchmark budget: a-priori upper bound vs consumed simulated time (paper SecV)",
		Headers: []string{"Dataset", "Machine", "#measurements", "#exhausted", "Budget/meas",
			"Upper bound", "Consumed", "Consumed/bound"},
	}
	for _, name := range datasetNames() {
		d, err := c.dataset(name)
		if err != nil {
			return "", err
		}
		opts := bench.DefaultOptions(d.Spec.Machine)
		bound := opts.Budget(len(d.Samples))
		exhausted := d.ExhaustedCount()
		t.AddRow(
			name,
			d.Spec.Machine,
			tablefmt.I(len(d.Samples)),
			tablefmt.I(exhausted),
			fmt.Sprintf("%.1f s", opts.MaxTime),
			fmtDuration(bound),
			fmtDuration(d.Consumed),
			tablefmt.F(d.Consumed/bound, 3),
		)
		labels := obs.Labels{"dataset": name, "machine": d.Spec.Machine}
		obs.Default.Gauge("budget_bound_sim_seconds", labels).Set(bound)
		obs.Default.Gauge("budget_consumed_sim_seconds", labels).Set(d.Consumed)
		obs.Default.Gauge("budget_consumed_over_bound", labels).Set(d.Consumed / bound)
		obs.Default.Counter("budget_measurements_total", labels).Add(int64(len(d.Samples)))
		obs.Default.Counter("budget_exhausted_total", labels).Add(int64(exhausted))
	}
	out := t.String()
	out += "\nThe consumed time is far below the bound because most instances finish their\n" +
		"repetitions in microseconds-to-milliseconds - the effect the paper reports as\n" +
		"\"the training on SuperMUC-NG would require at most ~3 hours, but took 56 minutes\".\n" +
		"Note the repetition scale factor: the paper caps every measurement at 500\n" +
		"repetitions, while the simulated datasets cap at 5 (full scale) or 2 (mid scale)\n" +
		"noise-perturbed repetitions, so consumed/bound here is lower by roughly that\n" +
		"100-250x factor on instances the budget never truncates.\n"
	return out, nil
}

func fmtDuration(sec float64) string {
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%.1f h", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%.1f min", sec/60)
	default:
		return fmt.Sprintf("%.1f s", sec)
	}
}

// runAblation compares the paper's three learners against the rejected
// baselines (random forest from the prior work, linear regression) on two
// representative datasets.
func runAblation(c *expCtx) (string, error) {
	t := &tablefmt.Table{
		Title:   "Ablation: mean speedup over default, paper learners vs rejected baselines",
		Headers: []string{"method", "d1 (Bcast/OMPI/Hydra)", "d2 (Allreduce/OMPI/Hydra)"},
	}
	for _, learner := range []string{"knn", "gam", "xgboost", "rf", "linear"} {
		row := []string{learnerLabel(learner)}
		for _, dn := range []string{"d1", "d2"} {
			e, err := c.evaluation(dn, learner, "full")
			if err != nil {
				return "", err
			}
			row = append(row, tablefmt.F(e.MeanSpeedup(), 2))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}
