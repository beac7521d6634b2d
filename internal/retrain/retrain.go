// Package retrain closes the loop the roadmap's telemetry item left open:
// observe served decisions (audit log) → re-measure them on the live
// (possibly drifted) machine → detect sustained observed-vs-predicted error
// → re-measure the affected grid cells, refit the affected configurations
// in parallel → deploy the candidate through a hot reload or a
// canary rollout. The whole loop is event-driven and seeded: state advances
// only per processed record, measurement seeds are content-derived, and the
// only wall-clock read is the injectable status-log timestamp clock — so a
// given audit log always produces the same candidates, byte for byte,
// whatever the fit worker count.
//
// State machine (DESIGN §13):
//
//	observing --drift declared--> retraining --candidate saved--> deploying
//	deploying --promoted/reloaded--> observing   (detector reset, new generation floor)
//	deploying --rollback/failure--> observing    (detector reset, candidate kept on disk)
package retrain

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
)

// Loop states.
const (
	StateObserving  = "observing"
	StateRetraining = "retraining"
	StateDeploying  = "deploying"
)

// Options configures a retraining loop.
type Options struct {
	// AuditPath is the selection audit log Run tails.
	AuditPath string
	// Reloader exposes the serving process's snapshot paths (and, for the
	// default deployer, its hot reload).
	Reloader Reloader
	// Deployer pushes candidates into serving; nil defaults to
	// &ReloadDeployer{Target: Reloader}.
	Deployer Deployer
	// Drift perturbs the observation measurements — it stands in for the
	// real machine drifting away from the training data. nil observes the
	// faithful machine.
	Drift *fault.Plan
	// OutDir receives candidate snapshots.
	OutDir string
	// CacheDir is the dataset cache (datasets regenerate deterministically
	// when absent).
	CacheDir string
	// Scale is the dataset scale for regeneration (default smoke).
	Scale dataset.Scale
	// StatusLog receives one JSON line per state transition; nil discards.
	StatusLog io.Writer
	// Clock timestamps status-log lines (default: wall clock). Loop
	// behavior never depends on it.
	Clock func() time.Time
}

// CycleInfo describes the last retraining cycle for the status endpoint.
type CycleInfo struct {
	Model    string     `json:"model"`
	Cells    int        `json:"cells"`
	Outcome  string     `json:"outcome"` // "reloaded", "promoted", or "failed"
	Error    string     `json:"error,omitempty"`
	Cand     *Candidate `json:"candidate,omitempty"`
	MinGen   uint64     `json:"min_generation"`
	Sequence uint64     `json:"sequence"` // 1-based cycle counter
}

// ModelStatus is one model's detector state for the status endpoint.
type ModelStatus struct {
	Model         string  `json:"model"`
	Observations  uint64  `json:"observations"`
	ErrorEvents   uint64  `json:"error_events"`
	ErrorRate     float64 `json:"error_rate"`
	Level         string  `json:"level"`
	BreachStreak  int     `json:"breach_streak"`
	Drifts        uint64  `json:"drifts"`
	MinGeneration uint64  `json:"min_generation"`
	LastRelErr    float64 `json:"last_rel_err"`
	PendingCells  int     `json:"pending_cells"`
}

// Status is the /v1/retrain/status payload.
type Status struct {
	State         string        `json:"state"`
	Observations  uint64        `json:"observations"`
	Skipped       uint64        `json:"skipped"` // fallback or stale-generation records
	Cycles        uint64        `json:"cycles"`
	DeploysOK     uint64        `json:"deploys_ok"`
	DeploysFailed uint64        `json:"deploys_failed"`
	Models        []ModelStatus `json:"models,omitempty"`
	LastCycle     *CycleInfo    `json:"last_cycle,omitempty"`
}

// Loop is the online retraining daemon. ProcessRecord is synchronous — a
// record that declares drift runs the full retrain+deploy cycle before
// returning — and Run is ProcessRecord fed by the streaming audit reader.
// The Loop starts no goroutines of its own.
type Loop struct {
	opts Options

	// Processing state is owned by the single caller of ProcessRecord
	// (Run's follow callback); no lock is held during observation,
	// retraining, or deployment.
	state   string
	status  Status
	det     *detector
	obsr    *observer
	rt      *retrainer
	cells   map[string]map[cell]struct{} // observed cells per model since last deploy
	dropped map[string]int               // cells beyond maxCells
	maxGen  map[string]uint64            // highest generation seen per model

	// published is the status snapshot concurrent readers (the serving
	// process's /v1/retrain/status handler) see; it is replaced wholesale
	// after every record and every state transition.
	pubMu     sync.Mutex
	published Status
}

// realClock is the loop's one wall-clock read: status-log timestamps are
// run metadata, never loop state, and tests inject a pinned Clock instead.
func realClock() time.Time {
	return time.Now() //mpicollvet:ignore wallclock status-log timestamps are real-time run metadata; Options.Clock is injectable and tests pin it
}

// New builds a loop; it performs no I/O until records arrive.
func New(opts Options) (*Loop, error) {
	if opts.Reloader == nil {
		return nil, fmt.Errorf("retrain: no reloader configured")
	}
	if opts.OutDir == "" {
		return nil, fmt.Errorf("retrain: no candidate output directory configured")
	}
	if opts.Deployer == nil {
		opts.Deployer = &ReloadDeployer{Target: opts.Reloader}
	}
	if opts.Clock == nil {
		opts.Clock = realClock
	}
	l := &Loop{
		opts:    opts,
		state:   StateObserving,
		det:     newDetector(),
		obsr:    newObserver(opts.Drift),
		rt:      newRetrainer(opts.CacheDir, opts.OutDir, opts.Scale),
		cells:   map[string]map[cell]struct{}{},
		dropped: map[string]int{},
		maxGen:  map[string]uint64{},
	}
	l.logTransition(StateObserving, "", "loop started")
	l.publish()
	return l, nil
}

// SetDrift swaps the observation fault plan mid-run — the scenario's
// "machine constants shift" event. Detector state is kept: the shift is
// what the loop exists to notice. Like ProcessRecord, it must be called
// from the processing goroutine, never concurrently with it.
func (l *Loop) SetDrift(plan *fault.Plan) {
	l.obsr.setPlan(plan)
}

// Run tails the audit log until ctx is cancelled, feeding every record
// through ProcessRecord.
func (l *Loop) Run(ctx context.Context) error {
	return audit.Follow(ctx, l.opts.AuditPath, audit.FollowOptions{}, func(rec audit.Record) error {
		return l.ProcessRecord(ctx, rec)
	})
}

// ProcessRecord observes one served decision; when it completes the drift
// hysteresis, the full retrain-and-deploy cycle runs inline before the call
// returns. A measurement or retraining error aborts the loop (the caller
// decides whether to restart); a deploy that does not take is recorded and
// observation continues — the fleet is still serving the old snapshots.
// ProcessRecord has exactly one caller at a time (Run's follow callback);
// concurrent Status readers see the snapshot published after each record.
func (l *Loop) ProcessRecord(ctx context.Context, rec audit.Record) error {
	err := l.processRecord(ctx, rec)
	l.publish()
	return err
}

func (l *Loop) processRecord(ctx context.Context, rec audit.Record) error {
	if rec.PredictedSeconds == nil {
		l.status.Skipped++
		return nil
	}
	if st := l.det.models[rec.Model]; st != nil && rec.Generation < st.minGen {
		// Decided by a replaced generation: comparing it against the new
		// model would re-declare the drift the deploy just fixed.
		l.status.Skipped++
		return nil
	}
	if g := l.maxGen[rec.Model]; rec.Generation > g {
		l.maxGen[rec.Model] = rec.Generation
	}

	observed, err := l.obsr.observe(rec)
	if err != nil {
		return err
	}
	relErr := (*rec.PredictedSeconds - observed) / observed
	l.status.Observations++
	obs.Default.Counter("retrain_observations_total", obs.Labels{"model": rec.Model}).Inc()

	cs := l.cells[rec.Model]
	if cs == nil {
		cs = map[cell]struct{}{}
		l.cells[rec.Model] = cs
	}
	c := cell{nodes: rec.Nodes, ppn: rec.PPN, msize: rec.Msize}
	if _, ok := cs[c]; !ok {
		if len(cs) < maxCells {
			cs[c] = struct{}{}
		} else {
			l.dropped[rec.Model]++
			obs.Default.Counter("retrain_cells_dropped_total", obs.Labels{"model": rec.Model}).Inc()
		}
	}

	if !l.det.observe(rec.Model, relErr) {
		return nil
	}
	obs.Default.Counter("retrain_drift_total", obs.Labels{"model": rec.Model}).Inc()
	return l.runCycle(ctx, rec.Model)
}

// runCycle executes retrain → deploy for one drifted model, on the
// processing goroutine; concurrent readers watch it through the published
// status snapshots emitted at every transition.
func (l *Loop) runCycle(ctx context.Context, model string) error {
	l.status.Cycles++
	info := &CycleInfo{Model: model, Sequence: l.status.Cycles}
	l.status.LastCycle = info
	l.setState(StateRetraining, model, "drift declared")
	obs.Default.Counter("retrain_cycles_total", nil).Inc()

	fail := func(outcome string, err error) {
		info.Outcome = "failed"
		info.Error = err.Error()
		l.status.DeploysFailed++
		obs.Default.Counter("retrain_deploys_total", obs.Labels{"outcome": outcome}).Inc()
		// Re-arm with the current generation floor: the old snapshots are
		// still serving, and the monitor's warm-up is the cooldown that
		// keeps a persistent failure from hot-looping the retrainer.
		l.det.reset(model, l.det.state(model).minGen)
		l.setState(StateObserving, model, "deploy failed: "+info.Error)
	}

	basePath, paths, err := l.snapshotPathFor(model)
	if err != nil {
		fail("resolve_failed", err)
		return nil
	}
	cells := make([]cell, 0, len(l.cells[model]))
	for c := range l.cells[model] {
		cells = append(cells, c)
	}
	info.Cells = len(cells)
	cand, err := l.rt.cycle(model, basePath, cells, l.obsr.plan)
	if err != nil {
		// Retraining errors (measurement or fit failures) are loop bugs or
		// resource problems, not drift: surface them to the caller.
		info.Outcome = "failed"
		info.Error = err.Error()
		l.setState(StateObserving, model, "retrain failed: "+info.Error)
		return err
	}
	info.Cand = cand

	l.setState(StateDeploying, model, "candidate "+cand.Path)
	next := make([]string, len(paths))
	for i, p := range paths {
		if p == basePath {
			next[i] = cand.Path
		} else {
			next[i] = p
		}
	}
	outcome, err := l.opts.Deployer.Deploy(ctx, cand, next)
	if err != nil {
		fail("deploy_failed", err)
		return nil
	}
	info.Outcome = outcome
	info.MinGen = l.maxGen[model] + 1
	l.status.DeploysOK++
	obs.Default.Counter("retrain_deploys_total", obs.Labels{"outcome": outcome}).Inc()
	// Fresh detector, generation floor past everything the old model
	// answered, and a clean cell slate for the next episode.
	l.det.reset(model, info.MinGen)
	delete(l.cells, model)
	delete(l.dropped, model)
	l.setState(StateObserving, model, "deployed: "+outcome)
	return nil
}

// snapshotPathFor maps a registry model name to its serving snapshot path
// by reading the reloader's current path set.
func (l *Loop) snapshotPathFor(model string) (string, []string, error) {
	paths := l.opts.Reloader.SnapshotPaths()
	for _, p := range paths {
		_, fp, err := core.LoadSnapshot(p)
		if err != nil {
			return "", nil, fmt.Errorf("retrain: reading serving snapshot %s: %w", p, err)
		}
		if fp.Dataset+"-"+fp.Learner == model {
			return p, paths, nil
		}
	}
	return "", nil, fmt.Errorf("retrain: no serving snapshot for model %q (paths %v)", model, paths)
}

// Status returns the last published status snapshot; safe for the serving
// process's status endpoint to call concurrently with the loop.
func (l *Loop) Status() Status {
	l.pubMu.Lock()
	defer l.pubMu.Unlock()
	return l.published
}

// publish rebuilds the status snapshot from the processing state and swaps
// it in for concurrent readers.
func (l *Loop) publish() {
	st := l.status
	st.State = l.state
	st.Models = nil
	for _, name := range l.det.names() {
		ms := l.det.models[name]
		st.Models = append(st.Models, ModelStatus{
			Model:         name,
			Observations:  ms.observations,
			ErrorEvents:   ms.errorEvents,
			ErrorRate:     ms.monitor.Rate(),
			Level:         ms.monitor.Level().String(),
			BreachStreak:  ms.breachStreak,
			Drifts:        ms.drifts,
			MinGeneration: ms.minGen,
			LastRelErr:    ms.lastRelErr,
			PendingCells:  len(l.cells[name]),
		})
	}
	if l.status.LastCycle != nil {
		cp := *l.status.LastCycle
		st.LastCycle = &cp
	}
	l.pubMu.Lock()
	l.published = st
	l.pubMu.Unlock()
}

// setState transitions the state machine, books the transition, and
// publishes the new state so readers see mid-cycle progress.
func (l *Loop) setState(state, model, detail string) {
	l.state = state
	obs.Default.Counter("retrain_transitions_total", obs.Labels{"state": state}).Inc()
	l.logTransition(state, model, detail)
	l.publish()
}

// logTransition writes one JSON line to the status log.
func (l *Loop) logTransition(state, model, detail string) {
	if l.opts.StatusLog == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"ts_us": l.opts.Clock().UnixMicro(), "state": state,
		"model": model, "detail": detail,
	})
	if err != nil {
		return
	}
	if _, err := l.opts.StatusLog.Write(append(line, '\n')); err != nil {
		obs.Default.Counter("retrain_status_log_errors_total", nil).Inc()
	}
}
