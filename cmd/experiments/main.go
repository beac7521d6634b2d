// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables I–IV, Figures 2 and 4–8, and the §V training-budget
// accounting) from the simulated datasets. Results are printed and written
// to <out>/<experiment>.txt.
//
// Usage:
//
//	experiments -cache results/cache -out results -scale mid            # everything
//	experiments -only table4a,fig4                                      # a subset
//
// Datasets are loaded from the cache directory and generated on demand
// (generation is the expensive step; use cmd/mpicollbench to run it
// separately / incrementally).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
)

// expCtx carries shared lazily-loaded state across experiments.
type expCtx struct {
	cacheDir string
	outDir   string
	scale    dataset.Scale
	learners []string
	log      *obs.Logger

	datasets map[string]*dataset.Dataset
	machines map[string]machine.Machine
	sets     map[string]*mpilib.CollectiveSet
	evals    map[string]*eval.Evaluation
}

func newCtx(cacheDir string, scale dataset.Scale, learners []string, log *obs.Logger) *expCtx {
	return &expCtx{
		cacheDir: cacheDir,
		scale:    scale,
		learners: learners,
		log:      log,
		datasets: map[string]*dataset.Dataset{},
		machines: map[string]machine.Machine{},
		sets:     map[string]*mpilib.CollectiveSet{},
		evals:    map[string]*eval.Evaluation{},
	}
}

// dataset returns the named dataset, loading or generating it once.
func (c *expCtx) dataset(name string) (*dataset.Dataset, error) {
	if d, ok := c.datasets[name]; ok {
		return d, nil
	}
	prog := obs.NewProgress(c.log, "generating "+name)
	d, err := dataset.LoadOrGenerate(c.cacheDir, name, c.scale, prog.Func())
	if err != nil {
		return nil, err
	}
	prog.Finish()
	c.datasets[name] = d
	return d, nil
}

// resolved returns the machine and (memoized) collective set of a dataset.
// Sharing the set across experiments reuses the Intel profile's expensive
// tuned-decision table.
func (c *expCtx) resolved(d *dataset.Dataset) (machine.Machine, *mpilib.CollectiveSet, error) {
	key := d.Spec.Name
	if s, ok := c.sets[key]; ok {
		return c.machines[key], s, nil
	}
	mach, set, err := d.Spec.Resolve()
	if err != nil {
		return machine.Machine{}, nil, err
	}
	c.machines[key] = mach
	c.sets[key] = set
	return mach, set, nil
}

// evaluation trains/evaluates one (dataset, learner, split-variant) and
// memoizes the result (Table IV and the figures share selectors).
func (c *expCtx) evaluation(dsName, learner, variant string) (*eval.Evaluation, error) {
	key := dsName + "/" + learner + "/" + variant
	if e, ok := c.evals[key]; ok {
		return e, nil
	}
	d, err := c.dataset(dsName)
	if err != nil {
		return nil, err
	}
	mach, set, err := c.resolved(d)
	if err != nil {
		return nil, err
	}
	split, err := eval.SplitFor(d.Spec.Machine)
	if err != nil {
		return nil, err
	}
	trainNodes, err := split.TrainNodes(variant)
	if err != nil {
		return nil, err
	}
	e, err := eval.Evaluate(d, mach, set, learner, trainNodes, split.Test)
	if err != nil {
		return nil, err
	}
	c.evals[key] = e
	return e, nil
}

type experiment struct {
	name string
	desc string
	run  func(c *expCtx) (string, error)
}

func experimentsList() []experiment {
	return []experiment{
		{"table1", "Hardware overview (paper Table I)", runTable1},
		{"table2", "Dataset overview d1-d8 (paper Table II)", runTable2},
		{"table3", "Training and test splits (paper Table III)", runTable3},
		{"table4a", "Prediction quality, large training set (paper Table IVa)", runTable4a},
		{"table4b", "Prediction quality, small training set (paper Table IVb)", runTable4b},
		{"fig2", "Chain-bcast speedup over linear, 32x32 Hydra (paper Fig. 2)", runFig2},
		{"fig4", "Bcast strategies, Open MPI, Hydra (paper Fig. 4)", runFig4},
		{"fig5", "Predicted algorithm map per learner (paper Fig. 5)", runFig5},
		{"fig6", "Allreduce strategies, Intel MPI, Hydra (paper Fig. 6)", runFig6},
		{"fig7", "Allreduce strategies, Open MPI, Jupiter (paper Fig. 7)", runFig7},
		{"fig8", "Bcast strategies, Open MPI, SuperMUC-NG (paper Fig. 8)", runFig8},
		{"budget", "Benchmark-budget accounting (paper SecV)", runBudget},
		{"ablation", "Learner ablation: rejected learners vs the paper's three", runAblation},
		{"strategies", "Selection-strategy ablation: paper vs rejected strategies (SecIII-A)", runStrategies},
		{"modelerr", "Regression-model error metrics (MAE/RMSE/MAPE)", runModelErr},
		{"importance", "Permutation feature importance", runImportance},
		{"crossval", "K-fold cross-validation by node count (SecV)", runCrossVal},
		{"placement", "Block vs cyclic rank placement changes the best algorithm (SecI)", runPlacement},
		{"robustness", "Speedup of predicted vs default under increasing fault intensity", runRobustness},
		{"drift_recovery", "Online retraining loop recovers from a mid-run machine shift (BENCH_retrain.json)", runDriftRecovery},
	}
}

func main() {
	var (
		cacheFlag   = flag.String("cache", "results/cache", "dataset cache directory")
		outFlag     = flag.String("out", "results", "output directory for text artifacts")
		scaleFlag   = flag.String("scale", "mid", "dataset scale: smoke, mid, full")
		onlyFlag    = flag.String("only", "", "comma-separated subset of experiments (default: all)")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		metricsFlag = flag.String("metrics", "", "write a metrics-registry snapshot to this file (.json for JSON)")
		profileFlag = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memFlag     = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
		verboseFlag = flag.Bool("v", false, "verbose (debug) logging")
		quietFlag   = flag.Bool("quiet", false, "suppress informational logging")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verboseFlag, *quietFlag))

	all := experimentsList()
	if *listFlag {
		for _, e := range all {
			fmt.Printf("%-9s %s\n", e.name, e.desc)
		}
		return
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, n := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles, err := obs.StartProfiles(*profileFlag, *memFlag)
	if err != nil {
		log.Errorf("%v", err)
		os.Exit(1)
	}
	ctx := newCtx(*cacheFlag, dataset.Scale(*scaleFlag), []string{"knn", "gam", "xgboost"}, log)
	ctx.outDir = *outFlag

	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now()
		out, err := e.run(ctx)
		if err != nil {
			log.Errorf("experiment %s failed: %v", e.name, err)
			failed++
			continue
		}
		text := fmt.Sprintf("== %s: %s ==\n\n", e.name, e.desc) + out
		path := filepath.Join(*outFlag, e.name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			log.Errorf("writing %s: %v", path, err)
			failed++
			continue
		}
		if !*quietFlag {
			fmt.Println(text)
		}
		log.Infof("%s done in %v -> %s", e.name, time.Since(start).Round(time.Millisecond), path)
	}
	if *metricsFlag != "" {
		if err := obs.Default.DumpFile(*metricsFlag); err != nil {
			log.Errorf("writing metrics: %v", err)
			failed++
		} else {
			log.Infof("metrics snapshot -> %s", *metricsFlag)
		}
	}
	if err := stopProfiles(); err != nil {
		log.Errorf("writing profiles: %v", err)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
}
