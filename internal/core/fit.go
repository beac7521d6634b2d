// Parallel fitting: Train's per-configuration model fits are embarrassingly
// parallel (one independent regression per configuration), so they run on
// par.Run, the pipeline's one ordered fan-out. Each fit reports its wall
// time into the observability registry, per par.Run worker.
//
// Parallel fitting is bit-identical to serial fitting: workers only compute
// (model, envelope, wall time) for their configuration, and par.Run hands
// the results to the caller's goroutine in configuration order, so map
// contents, envelope merges, FitWall accumulation order, and quarantine
// records are independent of worker count and scheduling.

package core

import (
	"runtime"
	"strconv"
	"time"

	"mpicollpred/internal/ml"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// fitResult is one configuration's outcome, produced by a par.Run worker
// and committed on the Train or Refit goroutine.
type fitResult struct {
	m    ml.Regressor
	env  Envelope
	wall float64
	err  error
}

// fitAll fits a fresh learner to each of n training sets on workers
// goroutines (<= 0 means GOMAXPROCS), where data(i) returns set i, and
// passes each outcome to commit in input order on the caller's goroutine.
// A fit error, a learner panic included, is part of the outcome, never a
// par.Run error: commit decides whether it quarantines the configuration or
// ends the run, so the first failing configuration in input order is the
// one reported, as in a serial loop.
//
// The run sets `core_fit_workers` and accumulates
// `core_fit_worker_busy_seconds{worker=w}` for par.Run's worker w.
func fitAll(learner string, n, workers int, data func(i int) ([][]float64, []float64), commit func(i int, res fitResult) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	obs.Default.Gauge("core_fit_workers", nil).Set(float64(workers))
	busy := make([]*obs.Gauge, min(workers, n))
	for w := range busy {
		busy[w] = obs.Default.Gauge("core_fit_worker_busy_seconds", obs.Labels{"worker": strconv.Itoa(w)})
	}
	return par.Run(n, workers, nil, func(w, i int) (fitResult, error) {
		t0 := time.Now()
		defer func() { busy[w].Add(time.Since(t0).Seconds()) }()
		x, y := data(i)
		m, err := ml.New(learner)
		if err != nil {
			return fitResult{err: err}, nil
		}
		f0 := time.Now()
		if err := safeFit(m, x, y); err != nil {
			return fitResult{err: err}, nil
		}
		return fitResult{m: m, env: newEnvelope(x, y), wall: time.Since(f0).Seconds()}, nil
	}, commit)
}
