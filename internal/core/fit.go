// Parallel fitting: Train's and Refit's per-configuration model fits are
// embarrassingly parallel (one independent regression per configuration),
// so they run on par.Run, the pipeline's one ordered fan-out, behind one
// helper, fitConfigs. Each fit reports its wall time into the
// observability registry, per par.Run worker.
//
// Parallel fitting is bit-identical to serial fitting: workers only compute
// (model, envelope, wall time) for their configuration, and par.Run hands
// the results to the caller's goroutine in configuration order, so map
// contents, envelope merges, FitWall accumulation order, and quarantine
// records are independent of worker count and scheduling.

package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// fitConfigs fits s's learner to each of cfgs from the samples of ds on
// s.TrainNodes, on GOMAXPROCS goroutines, and commits the models into s in
// the order of cfgs. stage ("fit" for Train, "refit" for Refit) labels
// quarantine records and errors. A configuration with no training samples
// fails the call before any fit runs, naming the first such configuration
// in commit order. A learner panic quarantines its configuration; any other
// fit error ends the call with the first failure in commit order. On
// success the union envelope is rebuilt from every per-configuration
// envelope in selectable order: min/max merging is order-independent, and a
// refit model's envelope may have shrunk, so it cannot be widened
// incrementally.
func (s *Selector) fitConfigs(ds *dataset.Dataset, cfgs []mpilib.Config, stage string) error {
	inTrain := map[int]bool{}
	for _, n := range s.TrainNodes {
		inTrain[n] = true
	}
	fitted := map[int]bool{}
	for _, cfg := range cfgs {
		fitted[cfg.ID] = true
	}
	xs := map[int][][]float64{}
	ys := map[int][]float64{}
	for _, smp := range ds.Samples {
		if !inTrain[smp.Nodes] || !fitted[smp.ConfigID] {
			continue
		}
		xs[smp.ConfigID] = append(xs[smp.ConfigID], Features(smp.Nodes, smp.PPN, smp.Msize))
		ys[smp.ConfigID] = append(ys[smp.ConfigID], smp.Time)
	}
	for _, cfg := range cfgs {
		if len(xs[cfg.ID]) == 0 {
			return fmt.Errorf("core: %s: configuration %d (%s) has no training samples on nodes %v",
				stage, cfg.ID, cfg.Label(), s.TrainNodes)
		}
	}

	fitHist := obs.Default.Histogram("core_fit_seconds", obs.Labels{"learner": s.Learner})
	err := fitAll(s.Learner, len(cfgs), func(i int) ([][]float64, []float64) {
		return xs[cfgs[i].ID], ys[cfgs[i].ID]
	}, func(i int, res fitResult) error {
		cfg := cfgs[i]
		if res.err != nil {
			if errors.Is(res.err, errLearnerPanic) {
				// One broken learner instance must not take down the whole
				// run: the configuration is quarantined (never selected)
				// and fitting continues.
				s.quarantine(cfg.ID, stage, res.err.Error())
				return nil
			}
			if stage == "refit" {
				return fmt.Errorf("core: refitting %s for config %d: %w", s.Learner, cfg.ID, res.err)
			}
			return fmt.Errorf("core: fitting %s for config %d (%s): %w", s.Learner, cfg.ID, cfg.Label(), res.err)
		}
		s.FitWall += res.wall
		fitHist.Observe(res.wall)
		s.models[cfg.ID] = res.m
		s.envelopes[cfg.ID] = res.env
		return nil
	})
	if err != nil {
		return err
	}
	s.envelope = Envelope{}
	for _, cfg := range s.configs {
		if env, ok := s.envelopes[cfg.ID]; ok {
			s.envelope.merge(env)
		}
	}
	return nil
}

// fitResult is one configuration's outcome, produced by a par.Run worker
// and committed on the Train or Refit goroutine.
type fitResult struct {
	m    ml.Regressor
	env  Envelope
	wall float64
	err  error
}

// newLearner builds every model core fits. It is ml.New; tests substitute
// learners that fail on purpose.
var newLearner = ml.New

// fitAll fits a fresh learner to each of n training sets on GOMAXPROCS
// goroutines, where data(i) returns set i, and passes each outcome to
// commit in input order on the caller's goroutine.
// A fit error, a learner panic included, is part of the outcome, never a
// par.Run error: commit decides whether it quarantines the configuration or
// ends the run, so the first failing configuration in input order is the
// one reported, as in a serial loop.
//
// The run sets `core_fit_workers` and accumulates
// `core_fit_worker_busy_seconds{worker=w}` for par.Run's worker w.
func fitAll(learner string, n int, data func(i int) ([][]float64, []float64), commit func(i int, res fitResult) error) error {
	workers := runtime.GOMAXPROCS(0)
	obs.Default.Gauge("core_fit_workers", nil).Set(float64(workers))
	busy := make([]*obs.Gauge, min(workers, n))
	for w := range busy {
		busy[w] = obs.Default.Gauge("core_fit_worker_busy_seconds", obs.Labels{"worker": strconv.Itoa(w)})
	}
	return par.Run(n, workers, nil, func(w, i int) (fitResult, error) {
		t0 := time.Now()
		defer func() { busy[w].Add(time.Since(t0).Seconds()) }()
		x, y := data(i)
		m, err := newLearner(learner)
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
