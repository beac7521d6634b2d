// Command mpicolltune is the tuning step of the framework: it trains the
// per-configuration regression models on a benchmark dataset and answers
// queries for unseen allocations — either as a one-off prediction or as a
// tuning file for a SLURM-style job allocation (the paper's deployment
// workflow). Trained models can be persisted as snapshots (-save) and used
// later without retraining (-load), which is also how mpicollserve gets its
// models.
//
// -dataset and -learner accept comma-separated lists; the resulting
// dataset × learner matrix of selectors is trained concurrently, each
// selector's fits spread over GOMAXPROCS workers, with snapshot saving
// overlapped with the remaining fits. Parallel training is bit-identical to
// serial training; -benchout measures the speedup and proves the identity
// (run with GOMAXPROCS=1 to train serially).
//
// Usage:
//
//	mpicolltune -dataset d1 -learner gam -nodes 27 -ppn 16 -msize 65536
//	mpicolltune -dataset d1 -learner xgboost -nodes 34 -ppn 32 -tuning-file
//	mpicolltune -dataset d2 -learner knn -nodes 27 -ppn 16 -msize 4096 -top 5
//	mpicolltune -dataset d1 -learner gam -save models/d1-gam.snap
//	mpicolltune -dataset d1,d2 -learner knn,gam,xgboost -save models/
//	GOMAXPROCS=4 mpicolltune -dataset d4 -learner gam -benchout BENCH_train.json
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
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
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

		retrainFrom  = flag.String("retrain-from", "", "offline retrain: base snapshot to retrain from an audit log")
		retrainLog   = flag.String("retrain-log", "", "offline retrain: finished audit log to ingest (required with -retrain-from)")
		retrainOut   = flag.String("retrain-out", "results/retrain", "offline retrain: candidate snapshot output directory")
		retrainDrift = flag.String("retrain-drift", "", "offline retrain: fault plan perturbing the re-measurements")
		benchout     = flag.String("benchout", "", "train serially and in parallel, verify bit-identity, write a speedup report here")
		metrics      = flag.String("metrics", "", "write a metrics-registry snapshot to this file (.json for JSON)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile   = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
		verbose      = flag.Bool("v", false, "verbose (debug) logging")
		quiet        = flag.Bool("quiet", false, "suppress informational logging")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verbose, *quiet))
	dsList := splitList(*dsNames)
	learnerList := splitList(*learners)
	matrix := len(dsList)*len(learnerList) > 1
	wantQuery := *tuning || *msize > 0
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "mpicolltune: "+msg)
		os.Exit(2)
	}
	switch {
	case *retrainFrom != "" && *retrainLog == "":
		usage("-retrain-from needs the audit log via -retrain-log")
	case *retrainFrom != "":
		// The offline retrain pass is a mode of its own.
	case *load != "" && *save != "":
		usage("-save and -load are mutually exclusive")
	case wantQuery && (*nodes <= 0 || *ppn <= 0):
		usage("-nodes and -ppn are required")
	case wantQuery && matrix:
		usage("predictions and tuning files need exactly one dataset and one learner")
	case !wantQuery && *save == "" && *benchout == "":
		usage("provide -msize for a prediction, -tuning-file for a rules file, -save for snapshots, or -benchout for a training benchmark")
	case *load == "" && len(dsList)*len(learnerList) == 0:
		usage("no dataset/learner selected")
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	finish = func() error {
		finish = func() error { return nil }
		err := stopProfiles()
		if *metrics != "" {
			if derr := obs.Default.DumpFile(*metrics); derr != nil {
				err = errors.Join(err, derr)
			} else {
				log.Infof("metrics snapshot -> %s", *metrics)
			}
		}
		return err
	}
	defer func() { fail(finish()) }()

	if *retrainFrom != "" {
		runRetrainOnce(log, *retrainFrom, *retrainLog, *retrainOut, *retrainDrift,
			*cache, dataset.Scale(*scale))
		return
	}

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

		if *benchout != "" {
			rep, err := par.SelfCheck(*benchout, "mpicolltune", benchLeg(units))
			fail(err)
			log.Infof("benchout: %v -> %s", rep, *benchout)
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
		fail(trainMatrix(units, saveTrained(log, units, saveDir, savePath)))

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
func runRetrainOnce(log *obs.Logger, snapPath, auditPath, outDir, driftSpec, cache string, scale dataset.Scale) {
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
		CacheDir: cache, Scale: scale, Drift: plan,
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
// dataset × learner matrix in deterministic order. It checks every
// dataset's training nodes before it generates any dataset.
func buildUnits(log *obs.Logger, dsList, learnerList []string, cache string, scale dataset.Scale, trainFlag string) []*unit {
	var flagNodes []int
	for _, part := range splitList(trainFlag) {
		n, err := strconv.Atoi(part)
		fail(err)
		flagNodes = append(flagNodes, n)
	}
	trainNodes := make([][]int, len(dsList))
	for i, name := range dsList {
		spec, err := dataset.SpecByName(name, scale)
		fail(err)
		trainNodes[i] = flagNodes
		if len(flagNodes) == 0 {
			split, err := eval.SplitFor(spec.Machine)
			fail(err)
			trainNodes[i] = split.Full
		}
		fail(checkTrainNodes(spec, scale, trainNodes[i]))
	}
	var units []*unit
	for i, name := range dsList {
		prog := obs.NewProgress(log, "generating "+name)
		ds, err := dataset.LoadOrGenerate(cache, name, scale, prog.Func())
		fail(err)
		prog.Finish()
		for _, learner := range learnerList {
			units = append(units, &unit{ds: ds, learner: learner, nodes: trainNodes[i]})
		}
	}
	return units
}

// checkTrainNodes reports training node counts none of which the dataset's
// grid has: no configuration would have a training sample, and training
// would fail only after the whole dataset was generated.
func checkTrainNodes(spec dataset.Spec, scale dataset.Scale, nodes []int) error {
	for _, n := range nodes {
		if slices.Contains(spec.Nodes, n) {
			return nil
		}
	}
	return fmt.Errorf("%s: training nodes %v are not among the dataset's node counts %v at scale %s; choose some with -train-nodes",
		spec.Name, nodes, spec.Nodes, scale)
}

// trainMatrix fits up to GOMAXPROCS units concurrently, each unit's Train
// fanning out over GOMAXPROCS fit workers of its own. At GOMAXPROCS=1 the
// units run strictly one after another: units in flight on one CPU would
// time-slice, and every fit's wall time would count the other units' slices.
// done(i, sel, took) runs on unit i's worker the moment its fits complete,
// so work such as saving a snapshot overlaps the remaining training; the
// first failing unit in matrix order ends the run. On success every unit's
// sel is set.
func trainMatrix(units []*unit, done func(i int, sel *core.Selector, took time.Duration) error) error {
	return par.Run(len(units), runtime.GOMAXPROCS(0), nil, func(_, i int) (*core.Selector, error) {
		u := units[i]
		mach, set, err := u.ds.Spec.Resolve()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sel, err := core.Train(u.ds, set, u.learner, u.nodes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name(), err)
		}
		sel.SetFallback(mach, set)
		return sel, done(i, sel, time.Since(t0))
	}, func(i int, sel *core.Selector) error {
		units[i].sel = sel
		return nil
	})
}

// saveTrained is the run's trainMatrix hook: it logs the unit's training and
// saves its snapshot to savePath, or under saveDir for a matrix.
func saveTrained(log *obs.Logger, units []*unit, saveDir, savePath string) func(i int, sel *core.Selector, took time.Duration) error {
	return func(i int, sel *core.Selector, took time.Duration) error {
		u := units[i]
		log.Infof("trained %s on %s (%d configurations, nodes %v) in %.3gs (fit wall %.3gs)",
			u.learner, u.ds.Spec.Name, len(sel.Configs()), u.nodes, took.Seconds(), sel.FitWall)
		path := savePath
		if saveDir != "" {
			path = filepath.Join(saveDir, u.name()+".snap")
		}
		if path == "" {
			return nil
		}
		if err := sel.SaveSnapshot(path, u.fingerprint()); err != nil {
			return err
		}
		log.Infof("snapshot -> %s (%s)", path, u.fingerprint())
		return nil
	}
}

// benchLeg is the -benchout self-check's leg: trainMatrix without the save,
// with the unit-ordered snapshots as the output.
func benchLeg(units []*unit) func() ([]byte, any, error) {
	type fitDetail struct {
		Selectors      int     `json:"selectors"`
		ModelsFitted   int     `json:"models_fitted"`
		FitWallSeconds float64 `json:"fit_wall_seconds"`
	}
	return func() ([]byte, any, error) {
		snaps := make([][]byte, len(units))
		err := trainMatrix(units, func(i int, sel *core.Selector, _ time.Duration) (err error) {
			snaps[i], err = sel.Snapshot(units[i].fingerprint())
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		detail := fitDetail{Selectors: len(units)}
		for _, u := range units {
			detail.ModelsFitted += len(u.sel.Configs())
			detail.FitWallSeconds += u.sel.FitWall
		}
		return bytes.Join(snaps, nil), detail, nil
	}
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

// finish stops the profiles and writes the metrics snapshot; main installs
// it, and it disarms itself on its first call. fail runs it too, because
// os.Exit skips deferred calls.
var finish = func() error { return nil }

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpicolltune: %v\n", err)
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "mpicolltune: %v\n", err)
		}
		os.Exit(1)
	}
}
