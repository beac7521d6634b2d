// The drift-recovery scenario: a fully in-process, fully seeded run of the
// whole loop. Phase A serves and observes a faithful machine (errors small,
// detector ok). Phase B shifts the machine's constants via a fault plan —
// the detector must declare drift and the loop must retrain and deploy.
// Phase C keeps serving on the shifted machine with the retrained model —
// the detector must settle back to ok. The scenario runs once per
// GOMAXPROCS setting in scenarioProcs and asserts the candidate snapshots
// are byte-identical, which is the experiment behind BENCH_retrain.json and
// results/drift_recovery.txt.

package retrain

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
	"mpicollpred/internal/tablefmt"
)

// The scenario's fixed world: the model it serves, the machine shift and
// the length of each phase. The scenario is a CI artifact, not a
// benchmark, so it runs at smoke scale.
const (
	scenarioDataset = "d1"
	scenarioLearner = "gam"
	scenarioScale   = dataset.ScaleSmoke
	// scenarioDrift is the machine-shift fault plan of phase B.
	scenarioDrift = "straggler:node=0,factor=4"
	// recordsPerPhase is the record count of phases A and C; phase B
	// feeds up to 4x this many before giving up on detection.
	recordsPerPhase = 48
	// scenarioSeed keys the served instance sequence.
	scenarioSeed = 1
)

// scenarioTrainNodes is the training split: the smoke grid's node counts.
var scenarioTrainNodes = []int{2, 3, 4, 5}

// PhaseStats summarizes one scenario phase.
type PhaseStats struct {
	Phase        string  `json:"phase"`
	Records      int     `json:"records"`
	Observations uint64  `json:"observations"`
	ErrorEvents  uint64  `json:"error_events"`
	EndErrorRate float64 `json:"end_error_rate"`
	EndLevel     string  `json:"end_level"`
}

// ScenarioReport is the BENCH_retrain.json payload. It contains no
// timestamps or wall-clock durations — every run renders the same bytes.
type ScenarioReport struct {
	Dataset       string       `json:"dataset"`
	Learner       string       `json:"learner"`
	Drift         string       `json:"drift"`
	TrainNodes    []int        `json:"train_nodes"`
	FitWorkers    []int        `json:"fit_workers"`
	Phases        []PhaseStats `json:"phases"` // from the first pass
	DriftDetected bool         `json:"drift_detected"`
	DetectedAfter uint64       `json:"detected_after_observations"`
	Cycles        uint64       `json:"cycles"`
	DeployOutcome string       `json:"deploy_outcome"`
	Candidate     *Candidate   `json:"candidate"`
	Recovered     bool         `json:"recovered"`
	Deterministic bool         `json:"deterministic"`
	CandidateSize int          `json:"candidate_size_bytes"`

	// candidateFile is the pass-local candidate path (excluded from the
	// JSON report, which must be byte-stable across working directories).
	candidateFile string
}

// scenarioReloader is the scenario's in-process serving stand-in: it tracks
// the deployed path set and generation, and re-resolves the live selector
// on reload exactly like a server would.
type scenarioReloader struct {
	paths []string
	gen   uint64
	sel   *core.Selector
}

func (r *scenarioReloader) SnapshotPaths() []string { return append([]string(nil), r.paths...) }

func (r *scenarioReloader) ReloadPaths(paths []string) error {
	if len(paths) != 1 {
		return fmt.Errorf("retrain: scenario serves exactly one snapshot, got %d", len(paths))
	}
	sel, _, err := core.LoadSnapshot(paths[0])
	if err != nil {
		return err
	}
	r.paths = append([]string(nil), paths...)
	r.sel = sel
	r.gen++
	return nil
}

// scenarioProcs are the GOMAXPROCS settings, and so the fit worker counts,
// the scenario's passes run at.
var scenarioProcs = []int{1, 4}

// RunScenario executes the drift-recovery scenario once per setting in
// scenarioProcs and cross-checks the runs. cacheDir is the dataset cache;
// workDir receives snapshots and candidates.
func RunScenario(cacheDir, workDir string) (*ScenarioReport, error) {
	if cacheDir == "" || workDir == "" {
		return nil, fmt.Errorf("retrain: scenario needs a cache and a work directory")
	}
	plan, err := fault.Parse(scenarioDrift)
	if err != nil {
		return nil, fmt.Errorf("retrain: scenario drift plan: %w", err)
	}

	var rep *ScenarioReport
	var candBytes [][]byte
	for _, procs := range scenarioProcs {
		var (
			passRep *ScenarioReport
			cand    []byte
		)
		par.AtProcs(procs, func() {
			passRep, cand, err = runScenarioPass(cacheDir, plan, filepath.Join(workDir, fmt.Sprintf("w%d", procs)))
		})
		if err != nil {
			return nil, fmt.Errorf("retrain: scenario with %d fit workers: %w", procs, err)
		}
		candBytes = append(candBytes, cand)
		if rep == nil {
			rep = passRep
		}
	}
	rep.FitWorkers = append([]int(nil), scenarioProcs...)
	rep.Deterministic = true
	for _, b := range candBytes[1:] {
		if !bytes.Equal(candBytes[0], b) {
			rep.Deterministic = false
		}
	}
	rep.CandidateSize = len(candBytes[0])
	return rep, nil
}

// runScenarioPass runs the three phases in dir and returns the report plus
// the candidate snapshot's bytes.
func runScenarioPass(cacheDir string, plan *fault.Plan, dir string) (*ScenarioReport, []byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ds, err := dataset.LoadOrGenerate(cacheDir, scenarioDataset, scenarioScale, nil)
	if err != nil {
		return nil, nil, err
	}
	spec, err := dataset.SpecByName(scenarioDataset, scenarioScale)
	if err != nil {
		return nil, nil, err
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		return nil, nil, err
	}
	sel, err := core.Train(ds, set, scenarioLearner, scenarioTrainNodes)
	if err != nil {
		return nil, nil, err
	}
	sel.SetFallback(mach, set)
	basePath := filepath.Join(dir, "base.snap")
	if err := sel.SaveSnapshot(basePath, core.FingerprintFor(ds, scenarioLearner, scenarioTrainNodes)); err != nil {
		return nil, nil, err
	}

	rel := &scenarioReloader{paths: []string{basePath}, gen: 1, sel: sel}
	loop, err := New(Options{
		Reloader: rel,
		OutDir:   dir,
		CacheDir: cacheDir,
		Scale:    scenarioScale,
		// Loop behavior never reads the clock; pin it so even the unused
		// default seam stays out of the scenario.
		Clock: func() time.Time { return time.UnixMicro(1) },
	})
	if err != nil {
		return nil, nil, err
	}

	model := scenarioDataset + "-" + scenarioLearner
	rep := &ScenarioReport{Dataset: scenarioDataset, Learner: scenarioLearner,
		Drift: scenarioDrift, TrainNodes: scenarioTrainNodes}

	// serve produces one audit record: a selection by the live model on a
	// drawn instance.
	seq := 0
	serve := func(rng *sim.RNG) audit.Record {
		seq++
		n := spec.Nodes[rng.Intn(len(spec.Nodes))]
		ppn := spec.PPNs[rng.Intn(len(spec.PPNs))]
		m := spec.Msizes[rng.Intn(len(spec.Msizes))]
		pred := rel.sel.Select(n, ppn, m)
		rec := audit.Record{
			V: audit.SchemaVersion, TimeUnixUs: int64(seq), Endpoint: "select",
			RequestID: fmt.Sprintf("scen-%d", seq),
			Model:     model, Coll: spec.Coll, Lib: spec.Lib, Machine: spec.Machine,
			Dataset: scenarioDataset, Generation: rel.gen,
			Nodes: n, PPN: ppn, Msize: m,
			ConfigID: pred.ConfigID, AlgID: pred.AlgID, Label: pred.Label,
			Fallback: pred.Fallback, FallbackReason: pred.FallbackReason,
		}
		if !pred.Fallback {
			p := pred.Predicted
			rec.PredictedSeconds = &p
		}
		return rec
	}
	modelStats := func() (obsN, errN uint64, rate float64, level string) {
		for _, ms := range loop.Status().Models {
			if ms.Model == model {
				return ms.Observations, ms.ErrorEvents, ms.ErrorRate, ms.Level
			}
		}
		return 0, 0, 0, "ok"
	}
	runPhase := func(name string, records int, stop func() bool) (PhaseStats, error) {
		rng := sim.NewRNG(sim.Seed(scenarioSeed, uint64(len(rep.Phases))))
		o0, e0, _, _ := modelStats()
		fed := 0
		for i := 0; i < records; i++ {
			if stop != nil && stop() {
				break
			}
			if err := loop.ProcessRecord(context.Background(), serve(rng)); err != nil {
				return PhaseStats{}, fmt.Errorf("phase %s record %d: %w", name, i, err)
			}
			fed++
		}
		o1, e1, rate, level := modelStats()
		ps := PhaseStats{Phase: name, Records: fed, Observations: o1 - o0,
			ErrorEvents: e1 - e0, EndErrorRate: rate, EndLevel: level}
		rep.Phases = append(rep.Phases, ps)
		return ps, nil
	}

	// Phase A: faithful machine.
	if _, err := runPhase("A:baseline", recordsPerPhase, nil); err != nil {
		return nil, nil, err
	}
	// Phase B: the machine shifts; feed until the loop completes a cycle.
	loop.SetDrift(plan)
	obsBefore := loop.Status().Observations
	if _, err := runPhase("B:drift", 4*recordsPerPhase, func() bool {
		return loop.Status().Cycles > 0 && loop.state == StateObserving
	}); err != nil {
		return nil, nil, err
	}
	st := loop.Status()
	rep.Cycles = st.Cycles
	if st.LastCycle != nil {
		rep.DriftDetected = true
		rep.DetectedAfter = st.Observations - obsBefore
		rep.DeployOutcome = st.LastCycle.Outcome
		if st.LastCycle.Cand != nil {
			// Strip run-local directories so the JSON report is byte-stable
			// across working directories.
			c := *st.LastCycle.Cand
			candPath := c.Path
			c.Path = filepath.Base(c.Path)
			c.ReplacesPath = filepath.Base(c.ReplacesPath)
			rep.Candidate = &c
			rep.candidateFile = candPath
		}
	}
	if !rep.DriftDetected || rep.DeployOutcome != "reloaded" {
		return nil, nil, fmt.Errorf("drift never detected and deployed (cycles=%d, outcome=%q)",
			rep.Cycles, rep.DeployOutcome)
	}
	// Phase C: still-shifted machine, retrained model.
	psC, err := runPhase("C:recovered", recordsPerPhase, nil)
	if err != nil {
		return nil, nil, err
	}
	rep.Recovered = psC.EndLevel == "ok" && loop.Status().Cycles == rep.Cycles

	cand, err := os.ReadFile(rep.candidateFile)
	if err != nil {
		return nil, nil, err
	}
	return rep, cand, nil
}

// Render formats the report as byte-stable text for
// results/drift_recovery.txt.
func (r *ScenarioReport) Render() string {
	t := &tablefmt.Table{
		Title:   fmt.Sprintf("Drift recovery: %s-%s under %q", r.Dataset, r.Learner, r.Drift),
		Headers: []string{"phase", "records", "observations", "error events", "end rate", "end level"},
	}
	for _, p := range r.Phases {
		t.AddRow(p.Phase, tablefmt.I(p.Records), tablefmt.I(int(p.Observations)),
			tablefmt.I(int(p.ErrorEvents)), tablefmt.F(p.EndErrorRate, 3), p.EndLevel)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ndrift detected: %v (after %d observations of the shifted machine)\n",
		r.DriftDetected, r.DetectedAfter)
	if r.Candidate != nil {
		fmt.Fprintf(&b, "candidate: %d cells re-measured, %d samples upserted, %d configurations refit\n",
			r.Candidate.Cells, r.Candidate.Samples, r.Candidate.RefitConfigs)
	}
	fmt.Fprintf(&b, "deploy outcome: %s\n", r.DeployOutcome)
	fmt.Fprintf(&b, "recovered (detector ok on retrained model): %v\n", r.Recovered)
	fmt.Fprintf(&b, "byte-identical candidates across fit pools %v: %v (%d bytes)\n",
		r.FitWorkers, r.Deterministic, r.CandidateSize)
	return b.String()
}
