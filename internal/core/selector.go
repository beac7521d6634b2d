// Package core implements the paper's contribution: the algorithm selection
// strategy for MPI collectives based on per-configuration regression models
// (Fig. 3 of the paper).
//
// For every algorithm configuration u(j,l) of a collective, a regression
// model is fitted that predicts the configuration's running time from the
// instance features (message size, number of nodes, processes per node).
// For an unseen instance, every model is queried and the configuration with
// the smallest predicted running time is selected. Merging the parameter
// allocation into the configuration id solves the algorithm selection and
// the algorithm configuration problem at once.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/floats"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
)

// Features maps an instance to the model's feature vector. Message size
// enters log-scaled (it spans six orders of magnitude); the total process
// count is added as a derived feature, which helps the additive learners
// capture tree-depth effects without interactions.
func Features(nodes, ppn int, msize int64) []float64 {
	p := float64(nodes * ppn)
	return []float64{
		math.Log2(float64(msize) + 1),
		float64(nodes),
		float64(ppn),
		math.Log2(p),
	}
}

// Prediction is one model's estimate for an instance.
type Prediction struct {
	ConfigID  int
	AlgID     int
	Label     string
	Predicted float64 // seconds; NaN when the guardrails fell back
	// Fallback reports that the guardrails rejected the models' answer and
	// this prediction came from the library's default decision logic.
	Fallback bool
	// FallbackReason is "extrapolation", "implausible" or "no_model" when
	// Fallback is set.
	FallbackReason string
}

// Selector is a trained algorithm selection model for one collective on one
// machine/library pair.
//
// Once trained (and optionally armed via SetFallback), a Selector is safe
// for concurrent callers: Select, SelectFeatures, PredictAll and the
// guardrail accessors may race freely. The only post-training mutation is
// quarantining a model whose learner panics at prediction time, which is
// serialized behind mu.
type Selector struct {
	Coll    string
	Learner string
	// TrainNodes records which node counts supplied training data.
	TrainNodes []int
	// FitWall is the total wall-clock time spent fitting the
	// per-configuration regression models, in seconds.
	FitWall float64

	configs    []mpilib.Config
	labels     []string // configs[i].Label(), built once by setConfigs
	selectHist *obs.Histogram

	// mu guards models and quarantined — the only state a concurrent
	// Select can mutate (predict-time quarantine of a panicking model).
	mu          sync.RWMutex
	models      map[int]ml.Regressor
	quarantined map[int]string

	// Guardrail state (see guardrails.go); immutable after Train/SetFallback.
	envelopes map[int]Envelope
	envelope  Envelope
	fallbacks atomic.Int64
	fbMach    machine.Machine
	fbSet     *mpilib.CollectiveSet
}

// Train fits one regression model per selectable configuration using the
// samples of ds whose node count is in trainNodes (the paper's split: train
// on commonly used node counts, predict the rest). learner is one of
// ml.Names() ("knn", "gam", "xgboost", ...). Fitting runs on GOMAXPROCS
// workers, and any count yields the same selector bit for bit, because
// workers only compute independent per-configuration results and this
// goroutine commits them in configuration order: model-map and envelope
// contents, the envelope merge order, FitWall's floating-point accumulation
// order, and quarantine records never depend on scheduling.
func Train(ds *dataset.Dataset, set *mpilib.CollectiveSet, learner string, trainNodes []int) (*Selector, error) {
	if len(trainNodes) == 0 {
		return nil, fmt.Errorf("core: no training node counts given")
	}
	if _, err := newLearner(learner); err != nil {
		return nil, err
	}
	sel := &Selector{
		Coll:       ds.Spec.Coll,
		Learner:    learner,
		TrainNodes: append([]int(nil), trainNodes...),
		models:     make(map[int]ml.Regressor),
		envelopes:  make(map[int]Envelope),
		selectHist: obs.Default.Histogram("core_select_seconds", obs.Labels{"learner": learner}),
	}
	sel.setConfigs(set.Selectable())

	t0 := time.Now()
	err := sel.fitConfigs(ds, sel.configs, "fit")
	obs.Default.Histogram("core_fit_parallel_seconds", obs.Labels{"learner": learner}).
		Observe(time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}
	return sel, nil
}

// setConfigs installs the selectable portfolio and its labels. A label
// concatenates the algorithm name and rendered parameters, so it is built
// once here rather than on every query.
func (s *Selector) setConfigs(cfgs []mpilib.Config) {
	s.configs = cfgs
	s.labels = make([]string, len(cfgs))
	for i, cfg := range cfgs {
		s.labels[i] = cfg.Label()
	}
}

// PredictAll returns every configuration's predicted running time for an
// instance, sorted ascending by prediction.
func (s *Selector) PredictAll(nodes, ppn int, msize int64) []Prediction {
	return s.PredictAllFeatures(Features(nodes, ppn, msize))
}

// PredictAllFeatures is PredictAll on an explicit feature vector.
// Quarantined configurations — and live models predicting NaN — report
// +Inf so they sort last and never win. Mapping NaN to +Inf before sorting
// matters for more than cosmetics: a bare `<` comparator over NaNs is not
// a strict weak order, so sort results (and therefore response order
// across runs and serve generations) would be anybody's guess. The sort is
// stable with a ConfigID tie-break, making the ranking fully deterministic
// even when several configurations predict exactly the same time.
func (s *Selector) PredictAllFeatures(f []float64) []Prediction {
	out := make([]Prediction, 0, len(s.configs))
	for i, cfg := range s.configs {
		t := s.safePredict(cfg.ID, f)
		if math.IsNaN(t) {
			t = math.Inf(1)
		}
		out = append(out, Prediction{
			ConfigID:  cfg.ID,
			AlgID:     cfg.AlgID,
			Label:     s.labels[i],
			Predicted: t,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !floats.Exact(out[i].Predicted, out[j].Predicted) {
			return out[i].Predicted < out[j].Predicted
		}
		return out[i].ConfigID < out[j].ConfigID
	})
	return out
}

// Tracer receives stage boundaries from a traced Select: StartSpan opens a
// named child span and returns the closure that ends it. The serving layer
// passes an obs request span here; a nil Tracer (the default everywhere
// else) keeps Select on the untraced zero-overhead path.
type Tracer interface {
	StartSpan(name string) func()
}

// stage opens a named span on tr, tolerating a nil tracer. The shared no-op
// keeps the untraced path allocation-free.
func stage(tr Tracer, name string) func() {
	if tr == nil {
		return noopStageEnd
	}
	return tr.StartSpan(name)
}

var noopStageEnd = func() {}

// Select returns the configuration with the smallest predicted running time
// for the instance — the ArgMin box of the paper's Fig. 3. When a fallback
// is installed (SetFallback), the guardrails vet the answer first: a query
// outside every model's training envelope, an implausible winning
// prediction, or a selector with no healthy models left is answered by the
// library's default decision logic instead. In-envelope queries with
// plausible predictions are untouched — they return exactly what an
// unguarded selector would.
func (s *Selector) Select(nodes, ppn int, msize int64) Prediction {
	return s.SelectTraced(nodes, ppn, msize, nil)
}

// SelectTraced is Select with per-stage spans reported to tr: "guardrails"
// covers the envelope check, "argmin" the model sweep, "fallback" the
// library-default decision. tr == nil is the plain Select.
func (s *Selector) SelectTraced(nodes, ppn int, msize int64, tr Tracer) Prediction {
	f := Features(nodes, ppn, msize)
	if !s.guarded() {
		return s.argminStage(f, tr)
	}
	endGuard := stage(tr, "guardrails")
	contained := s.envelope.Contains(f)
	endGuard()
	if !contained {
		return s.fallbackStage(nodes, ppn, msize, "extrapolation", tr)
	}
	best := s.argminStage(f, tr)
	if best.Fallback {
		return s.fallbackStage(nodes, ppn, msize, "no_model", tr)
	}
	if env, ok := s.envelopes[best.ConfigID]; ok && !env.Plausible(best.Predicted) {
		return s.fallbackStage(nodes, ppn, msize, "implausible", tr)
	}
	return best
}

// argminStage runs the model sweep under an "argmin" span.
func (s *Selector) argminStage(f []float64, tr Tracer) Prediction {
	end := stage(tr, "argmin")
	p := s.SelectFeatures(f)
	end()
	return p
}

// fallbackStage runs the library-default decision under a "fallback" span.
func (s *Selector) fallbackStage(nodes, ppn int, msize int64, reason string, tr Tracer) Prediction {
	end := stage(tr, "fallback")
	p := s.fallback(nodes, ppn, msize, reason)
	end()
	return p
}

// SelectFeatures is Select on an explicit feature vector (used by the
// permutation-importance analysis, which tampers with single features). It
// is the raw argmin — guardrails do not apply here, only panic safety:
// quarantined or panicking models are skipped.
//
// When no healthy model produced a finite prediction (every configuration
// quarantined, or every live model answered NaN), the result is an explicit
// fallback: ConfigID mpilib.DefaultID with Fallback set, FallbackReason
// "no_model" and a NaN predicted time. Returning the zero Prediction here
// would be indistinguishable from "the library default, predicted to take
// 0 seconds" — a silent lie to any unguarded caller.
func (s *Selector) SelectFeatures(f []float64) Prediction {
	if s.selectHist != nil {
		t0 := time.Now()
		defer func() { s.selectHist.Observe(time.Since(t0).Seconds()) }()
	}
	var best Prediction
	first := true
	for i, cfg := range s.configs {
		t := s.safePredict(cfg.ID, f)
		if math.IsNaN(t) {
			continue
		}
		if first || t < best.Predicted {
			best = Prediction{ConfigID: cfg.ID, AlgID: cfg.AlgID, Label: s.labels[i], Predicted: t}
			first = false
		}
	}
	if first {
		return Prediction{ConfigID: mpilib.DefaultID, Label: "library-default",
			Predicted: math.NaN(), Fallback: true, FallbackReason: "no_model"}
	}
	return best
}

// Configs returns the selectable configurations the selector ranges over.
func (s *Selector) Configs() []mpilib.Config { return s.configs }
