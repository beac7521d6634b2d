// Command mpicolltune is the tuning step of the framework: it trains the
// per-configuration regression models on a benchmark dataset and answers
// queries for unseen allocations — either as a one-off prediction or as a
// tuning file for a SLURM-style job allocation (the paper's deployment
// workflow). Trained models can be persisted as snapshots (-save) and used
// later without retraining (-load), which is also how mpicollserve gets its
// models.
//
// -dataset and -learner accept comma-separated lists; the resulting
// dataset × learner matrix of selectors is trained concurrently on one
// bounded fit-worker pool (-fitworkers), with snapshot saving overlapped
// with the remaining fits. Parallel training is bit-identical to serial
// training; -fitbench measures the speedup and proves the identity.
//
// Usage:
//
//	mpicolltune -dataset d1 -learner gam -nodes 27 -ppn 16 -msize 65536
//	mpicolltune -dataset d1 -learner xgboost -nodes 34 -ppn 32 -tuning-file
//	mpicolltune -dataset d2 -learner knn -nodes 27 -ppn 16 -msize 4096 -top 5
//	mpicolltune -dataset d1 -learner gam -save models/d1-gam.snap
//	mpicolltune -dataset d1,d2 -learner knn,gam,xgboost -save models/
//	mpicolltune -dataset d4 -learner gam -fitworkers 4 -fitbench BENCH_train.json
//	mpicolltune -load models/d1-gam.snap -nodes 27 -ppn 16 -msize 65536
//
// -retrain-from runs one offline pass of the internal/retrain pipeline: it
// ingests a finished selection audit log, re-measures the served instance
// cells (optionally under a -retrain-drift fault plan), and refits the
// affected configurations of the snapshot into a versioned candidate — the
// same code path as the `mpicollserve -retrain` daemon, so the candidate is
// byte-identical to what the online loop would write for the same log:
//
//	mpicolltune -retrain-from models/d1-gam.snap -retrain-log audit.jsonl \
//	    -retrain-out models -retrain-drift straggler:node=0,factor=4
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/retrain"
)

// unit is one (dataset, learner) cell of the tuning matrix.
type unit struct {
	ds      *dataset.Dataset
	learner string
	nodes   []int // training node counts
	sel     *core.Selector
}

func (u *unit) name() string { return u.ds.Spec.Name + "-" + u.learner }

func (u *unit) fingerprint() core.Fingerprint {
	return core.FingerprintFor(u.ds, u.learner, u.nodes)
}

func main() {
	var (
		dsNames  = flag.String("dataset", "d1", "comma-separated training datasets (d1..d8)")
		scale    = flag.String("scale", "mid", "dataset scale: smoke, mid, full")
		cache    = flag.String("cache", "results/cache", "dataset cache directory")
		learners = flag.String("learner", "gam", "comma-separated regression learners: knn, gam, xgboost, rf, linear")
		nodes    = flag.Int("nodes", 0, "number of compute nodes of the target allocation")
		ppn      = flag.Int("ppn", 0, "processes per node of the target allocation")
		msize    = flag.Int64("msize", 0, "message size in bytes (single prediction)")
		top      = flag.Int("top", 1, "show the top-k predicted configurations")
		tuning   = flag.Bool("tuning-file", false, "emit a tuning rules file over the standard message sizes")
		train    = flag.String("train-nodes", "", "comma-separated training node counts (default: the machine's full Table III split)")
		save     = flag.String("save", "", "write trained models here (a file for a single model, a directory for a matrix)")
		load     = flag.String("load", "", "load a model snapshot instead of training (skips dataset generation)")
		workers  = flag.Int("fitworkers", 0, "fit-worker pool size (0 = GOMAXPROCS, 1 = serial)")

		retrainFrom  = flag.String("retrain-from", "", "offline retrain: base snapshot to retrain from an audit log")
		retrainLog   = flag.String("retrain-log", "", "offline retrain: finished audit log to ingest (required with -retrain-from)")
		retrainOut   = flag.String("retrain-out", "results/retrain", "offline retrain: candidate snapshot output directory")
		retrainDrift = flag.String("retrain-drift", "", "offline retrain: fault plan perturbing the re-measurements")
		retrainCells = flag.Int("retrain-cells", 0, "offline retrain: cap on distinct instance cells swept (0 = default)")
		fitbench     = flag.String("fitbench", "", "train serially and in parallel, verify bit-identity, write a speedup report here")
		metrics      = flag.String("metrics", "", "write a metrics-registry snapshot to this file (.json for JSON)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile   = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
		verbose      = flag.Bool("v", false, "verbose (debug) logging")
		quiet        = flag.Bool("quiet", false, "suppress informational logging")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verbose, *quiet))
	core.SetFitWorkers(*workers)
	stopProfile, err := obs.StartCPUProfile(*cpuprofile)
	fail(err)
	defer func() { fail(stopProfile()) }()
	stopMemProfile, err := obs.StartMemProfile(*memprofile)
	fail(err)
	defer func() { fail(stopMemProfile()) }()

	if *retrainFrom != "" {
		if *retrainLog == "" {
			fmt.Fprintln(os.Stderr, "mpicolltune: -retrain-from needs the audit log via -retrain-log")
			os.Exit(2)
		}
		runRetrainOnce(log, *retrainFrom, *retrainLog, *retrainOut, *retrainDrift,
			*cache, dataset.Scale(*scale), *retrainCells)
		return
	}
	if *load != "" && *save != "" {
		fmt.Fprintln(os.Stderr, "mpicolltune: -save and -load are mutually exclusive")
		os.Exit(2)
	}
	dsList := splitList(*dsNames)
	learnerList := splitList(*learners)
	matrix := len(dsList)*len(learnerList) > 1
	wantQuery := *tuning || *msize > 0
	if wantQuery && (*nodes <= 0 || *ppn <= 0) {
		fmt.Fprintln(os.Stderr, "mpicolltune: -nodes and -ppn are required")
		os.Exit(2)
	}
	if wantQuery && matrix {
		fmt.Fprintln(os.Stderr, "mpicolltune: predictions and tuning files need exactly one dataset and one learner")
		os.Exit(2)
	}
	if !wantQuery && *save == "" && *fitbench == "" {
		fmt.Fprintln(os.Stderr, "mpicolltune: provide -msize for a prediction, -tuning-file for a rules file, -save for snapshots, or -fitbench for a training benchmark")
		os.Exit(2)
	}

	defer func() {
		if *metrics != "" {
			fail(obs.Default.DumpFile(*metrics))
			log.Infof("metrics snapshot -> %s", *metrics)
		}
	}()

	var (
		sel    *core.Selector
		coll   string
		msizes []int64
	)
	if *load != "" {
		var fp core.Fingerprint
		var err error
		sel, fp, err = core.LoadSnapshot(*load)
		fail(err)
		log.Infof("loaded snapshot %s: %s", *load, fp)
		// The tuning-file message-size sweep comes from the snapshot's
		// dataset spec; no benchmark data is generated or read.
		spec, err := dataset.SpecByName(fp.Dataset, dataset.Scale(*scale))
		fail(err)
		coll, msizes = sel.Coll, spec.Msizes
	} else {
		units := buildUnits(log, dsList, learnerList, *cache, dataset.Scale(*scale), *train)

		if *fitbench != "" {
			fail(runFitBench(log, units, *workers, *fitbench))
			if !wantQuery && *save == "" {
				return
			}
		}

		saveDir := ""
		savePath := *save
		if matrix && *save != "" {
			saveDir = *save
			fail(os.MkdirAll(saveDir, 0o755))
			savePath = ""
		}
		trainMatrix(log, units, saveDir, savePath)

		u := units[0]
		sel = u.sel
		coll, msizes = u.ds.Spec.Coll, u.ds.Spec.Msizes
	}

	if !wantQuery {
		return
	}
	if *tuning {
		fmt.Print(sel.TuningFile(*nodes, *ppn, msizes))
		return
	}
	preds := sel.PredictAll(*nodes, *ppn, *msize)
	if *top < 1 {
		*top = 1
	}
	if *top > len(preds) {
		*top = len(preds)
	}
	fmt.Printf("%s, %d x %d processes, %d bytes:\n", coll, *nodes, *ppn, *msize)
	for i := 0; i < *top; i++ {
		p := preds[i]
		fmt.Printf("  %d. alg %-2d config %-3d %-32s predicted %.6gs\n",
			i+1, p.AlgID, p.ConfigID, p.Label, p.Predicted)
	}
}

// runRetrainOnce is the -retrain-from path: one offline observe→refit pass
// over a finished audit log, printing the candidate report as JSON.
func runRetrainOnce(log *obs.Logger, snapPath, auditPath, outDir, driftSpec, cache string, scale dataset.Scale, maxCells int) {
	var plan *fault.Plan
	if driftSpec != "" {
		p, err := fault.Parse(driftSpec)
		fail(err)
		plan = p
		log.Infof("retrain: re-measuring under drift plan %q", driftSpec)
	}
	fail(os.MkdirAll(outDir, 0o755))
	rep, err := retrain.Once(retrain.OnceOptions{
		SnapshotPath: snapPath, AuditPath: auditPath, OutDir: outDir,
		CacheDir: cache, Scale: scale, Drift: plan, MaxCells: maxCells,
	})
	fail(err)
	c := rep.Candidate
	log.Infof("retrained %s from %d audit records (%d with predictions): %d cells re-measured, %d samples upserted, %d configurations refit",
		rep.Model, rep.Records, rep.Ingested, c.Cells, c.Samples, c.RefitConfigs)
	log.Infof("candidate -> %s", c.Path)
	data, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	fmt.Println(string(data))
}

// buildUnits loads every requested dataset once and expands the
// dataset × learner matrix in deterministic order.
func buildUnits(log *obs.Logger, dsList, learnerList []string, cache string, scale dataset.Scale, trainFlag string) []*unit {
	var flagNodes []int
	for _, part := range splitList(trainFlag) {
		n, err := strconv.Atoi(part)
		fail(err)
		flagNodes = append(flagNodes, n)
	}
	var units []*unit
	for _, name := range dsList {
		prog := obs.NewProgress(log, "generating "+name)
		ds, err := dataset.LoadOrGenerate(cache, name, scale, prog.Func())
		fail(err)
		prog.Finish()
		trainNodes := flagNodes
		if len(trainNodes) == 0 {
			split, err := eval.SplitFor(ds.Spec.Machine)
			fail(err)
			trainNodes = split.Full
		}
		for _, learner := range learnerList {
			units = append(units, &unit{ds: ds, learner: learner, nodes: trainNodes})
		}
	}
	if len(units) == 0 {
		fmt.Fprintln(os.Stderr, "mpicolltune: no dataset/learner selected")
		os.Exit(2)
	}
	return units
}

// trainMatrix fits every unit concurrently on the shared fit-worker pool.
// Each unit's snapshot is saved from its own goroutine the moment its fits
// complete, overlapping disk writes with the remaining training work.
func trainMatrix(log *obs.Logger, units []*unit, saveDir, savePath string) {
	var wg sync.WaitGroup
	errs := make([]error, len(units))
	for i, u := range units {
		wg.Add(1)
		go func(i int, u *unit) {
			defer wg.Done()
			mach, set, err := u.ds.Spec.Resolve()
			if err != nil {
				errs[i] = err
				return
			}
			t0 := time.Now()
			sel, err := core.Train(u.ds, set, u.learner, u.nodes)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", u.name(), err)
				return
			}
			sel.SetFallback(mach, set)
			u.sel = sel
			log.Infof("trained %s on %s (%d configurations, nodes %v) in %.3gs (fit wall %.3gs)",
				u.learner, u.ds.Spec.Name, len(sel.Configs()), u.nodes, time.Since(t0).Seconds(), sel.FitWall)
			path := savePath
			if saveDir != "" {
				path = filepath.Join(saveDir, u.name()+".snap")
			}
			if path != "" {
				if err := sel.SaveSnapshot(path, u.fingerprint()); err != nil {
					errs[i] = err
					return
				}
				log.Infof("snapshot -> %s (%s)", path, u.fingerprint())
			}
		}(i, u)
	}
	wg.Wait()
	for _, err := range errs {
		fail(err)
	}
}

// fitBenchReport is what -fitbench writes (BENCH_train.json in CI).
type fitBenchReport struct {
	Datasets        []string `json:"datasets"`
	Learners        []string `json:"learners"`
	Selectors       int      `json:"selectors"`
	ModelsFitted    int      `json:"models_fitted"`
	Workers         int      `json:"workers"`
	SerialSeconds   float64  `json:"serial_seconds"`
	ParallelSeconds float64  `json:"parallel_seconds"`
	Speedup         float64  `json:"speedup"`
	SerialFitWall   float64  `json:"serial_fit_wall_seconds"`
	ParallelFitWall float64  `json:"parallel_fit_wall_seconds"`
	// FitWallSpeedup divides the serial fit wall (the time the fits alone
	// would take back to back) by the parallel leg's elapsed time — the
	// headline parallelism number, independent of dataset-loading overhead.
	FitWallSpeedup     float64 `json:"fit_wall_speedup"`
	SnapshotsIdentical bool    `json:"snapshots_identical"`
}

// runFitBench trains the matrix twice — on a 1-worker pool, one unit at a
// time (the serial baseline), then concurrently on a pool of the requested
// size — verifies the two runs produced bit-identical snapshots, and writes
// the wall-clock speedup report. A snapshot mismatch is a determinism bug
// and fails the run.
func runFitBench(log *obs.Logger, units []*unit, workers int, out string) error {
	rep := fitBenchReport{Workers: workers, Selectors: len(units)}
	if rep.Workers <= 0 {
		rep.Workers = core.DefaultFitPool().Workers()
	}
	seen := map[string]bool{}
	for _, u := range units {
		if !seen[u.ds.Spec.Name] {
			seen[u.ds.Spec.Name] = true
			rep.Datasets = append(rep.Datasets, u.ds.Spec.Name)
		}
	}
	seen = map[string]bool{}
	for _, u := range units {
		if !seen[u.learner] {
			seen[u.learner] = true
			rep.Learners = append(rep.Learners, u.learner)
		}
	}

	type trained struct {
		snap    []byte
		fitWall float64
		configs int
	}
	run := func(pool *core.FitPool, concurrent bool) ([]trained, float64, error) {
		defer pool.Close()
		outs := make([]trained, len(units))
		errs := make([]error, len(units))
		one := func(i int, u *unit) {
			_, set, err := u.ds.Spec.Resolve()
			if err != nil {
				errs[i] = err
				return
			}
			sel, err := core.TrainPool(u.ds, set, u.learner, u.nodes, pool)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", u.name(), err)
				return
			}
			snap, err := sel.Snapshot(u.fingerprint())
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = trained{snap: snap, fitWall: sel.FitWall, configs: len(sel.Configs())}
		}
		t0 := time.Now()
		if concurrent {
			var wg sync.WaitGroup
			for i, u := range units {
				wg.Add(1)
				go func(i int, u *unit) { defer wg.Done(); one(i, u) }(i, u)
			}
			wg.Wait()
		} else {
			for i, u := range units {
				one(i, u)
			}
		}
		elapsed := time.Since(t0).Seconds()
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		return outs, elapsed, nil
	}

	log.Infof("fitbench: serial leg (%d selectors, 1 worker)", len(units))
	serial, serialElapsed, err := run(core.NewFitPool(1), false)
	if err != nil {
		return err
	}
	log.Infof("fitbench: parallel leg (%d workers)", rep.Workers)
	parallel, parallelElapsed, err := run(core.NewFitPool(rep.Workers), true)
	if err != nil {
		return err
	}

	rep.SerialSeconds, rep.ParallelSeconds = serialElapsed, parallelElapsed
	if parallelElapsed > 0 {
		rep.Speedup = serialElapsed / parallelElapsed
	}
	rep.SnapshotsIdentical = true
	for i := range units {
		rep.SerialFitWall += serial[i].fitWall
		rep.ParallelFitWall += parallel[i].fitWall
		rep.ModelsFitted += serial[i].configs
		if !bytes.Equal(serial[i].snap, parallel[i].snap) {
			rep.SnapshotsIdentical = false
			log.Errorf("fitbench: %s: parallel snapshot differs from serial snapshot", units[i].name())
		}
	}
	if parallelElapsed > 0 {
		rep.FitWallSpeedup = rep.SerialFitWall / parallelElapsed
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	log.Infof("fitbench: serial %.3gs, parallel %.3gs at %d workers -> %.2fx, identical=%v -> %s",
		rep.SerialSeconds, rep.ParallelSeconds, rep.Workers, rep.Speedup, rep.SnapshotsIdentical, out)
	if !rep.SnapshotsIdentical {
		return fmt.Errorf("fitbench: parallel training is not bit-identical to serial training")
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpicolltune: %v\n", err)
		os.Exit(1)
	}
}
