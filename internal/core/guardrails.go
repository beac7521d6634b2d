// Guardrails keep a trained Selector safe to deploy: every per-configuration
// model carries the envelope of its training data, and Select refuses to
// trust predictions outside it — out-of-envelope (extrapolating) queries and
// implausible predicted times fall back to the library's default decision
// logic, which is exactly what an untuned MPI run would have used. A model
// whose learner panics is quarantined and simply never selected, so one
// broken regressor cannot take down a tuned installation.

package core

import (
	"fmt"
	"math"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
)

// Envelope is the axis-aligned bounding box of a model's training features
// plus the range of its training responses. It answers two questions at
// selection time: is this query an interpolation (trustworthy) or an
// extrapolation, and is this predicted time even plausible given what the
// model was trained on?
type Envelope struct {
	FeatMin, FeatMax []float64
	RespMin, RespMax float64
}

func newEnvelope(x [][]float64, y []float64) Envelope {
	e := Envelope{
		FeatMin: append([]float64(nil), x[0]...),
		FeatMax: append([]float64(nil), x[0]...),
		RespMin: y[0], RespMax: y[0],
	}
	for _, row := range x[1:] {
		for j, v := range row {
			if v < e.FeatMin[j] {
				e.FeatMin[j] = v
			}
			if v > e.FeatMax[j] {
				e.FeatMax[j] = v
			}
		}
	}
	for _, v := range y[1:] {
		if v < e.RespMin {
			e.RespMin = v
		}
		if v > e.RespMax {
			e.RespMax = v
		}
	}
	return e
}

// merge widens the envelope to cover o.
func (e *Envelope) merge(o Envelope) {
	if e.FeatMin == nil {
		*e = Envelope{
			FeatMin: append([]float64(nil), o.FeatMin...),
			FeatMax: append([]float64(nil), o.FeatMax...),
			RespMin: o.RespMin, RespMax: o.RespMax,
		}
		return
	}
	for j := range e.FeatMin {
		if o.FeatMin[j] < e.FeatMin[j] {
			e.FeatMin[j] = o.FeatMin[j]
		}
		if o.FeatMax[j] > e.FeatMax[j] {
			e.FeatMax[j] = o.FeatMax[j]
		}
	}
	if o.RespMin < e.RespMin {
		e.RespMin = o.RespMin
	}
	if o.RespMax > e.RespMax {
		e.RespMax = o.RespMax
	}
}

// Contains reports whether f lies inside the feature box (bounds inclusive,
// so every training instance is inside its own envelope).
func (e Envelope) Contains(f []float64) bool {
	if len(f) != len(e.FeatMin) {
		return false
	}
	for j, v := range f {
		if v < e.FeatMin[j] || v > e.FeatMax[j] || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// Plausible reports whether a predicted time is within the training-response
// range widened by DefaultPlausibilitySlack on each side: a model predicting
// a time 100x beyond anything it ever saw is declared broken rather than
// believed.
func (e Envelope) Plausible(t float64) bool {
	return t >= e.RespMin/DefaultPlausibilitySlack && t <= e.RespMax*DefaultPlausibilitySlack
}

// DefaultPlausibilitySlack is the multiplicative widening applied to a
// model's training-response range before a prediction is declared
// implausible. Generous on purpose: legitimate extrapolation in time (larger
// messages run longer) must pass; only runaway model output should trip it.
const DefaultPlausibilitySlack = 100

// SetFallback arms the selector's guardrails with the library's default
// decision logic. Once set, Select falls back to set.Decide — the exact
// behavior of an untuned MPI installation — whenever a query extrapolates
// beyond every model's training envelope, the winning prediction is
// implausible, or no healthy model produced a finite prediction. Without a
// fallback the guardrails stay disarmed and Select behaves exactly as
// before.
func (s *Selector) SetFallback(mach machine.Machine, set *mpilib.CollectiveSet) {
	s.fbMach = mach
	s.fbSet = set
}

// guarded reports whether a fallback decision logic is installed.
func (s *Selector) guarded() bool { return s.fbSet != nil }

// Fallbacks returns how many Select calls were answered by the library's
// default decision logic instead of the models.
func (s *Selector) Fallbacks() int { return int(s.fallbacks.Load()) }

// Quarantined returns the configuration ids whose model was removed after a
// learner panic, with the recorded reason.
func (s *Selector) Quarantined() map[int]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]string, len(s.quarantined))
	for id, reason := range s.quarantined {
		out[id] = reason
	}
	return out
}

// Envelope returns the union training envelope across all models.
func (s *Selector) Envelope() Envelope { return s.envelope }

// quarantine removes a model from selection permanently and books the event.
// Safe to call from concurrent Select paths.
func (s *Selector) quarantine(id int, stage, reason string) {
	s.mu.Lock()
	delete(s.models, id)
	if s.quarantined == nil {
		s.quarantined = map[int]string{}
	}
	s.quarantined[id] = stage + ": " + reason
	s.mu.Unlock()
	obs.Default.Counter("core_model_quarantined_total",
		obs.Labels{"learner": s.Learner, "stage": stage}).Inc()
}

// safeFit runs Fit with panic recovery; a panic is converted into an error
// so Train can quarantine the configuration instead of crashing.
func safeFit(m ml.Regressor, x [][]float64, y []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errLearnerPanic, r)
		}
	}()
	return m.Fit(x, y)
}

// errLearnerPanic marks a Fit failure that came from a panic rather than a
// returned error.
var errLearnerPanic = fmt.Errorf("core: learner panicked")

// safePredict queries one model with panic recovery. A missing (quarantined)
// model yields NaN; a panicking model is quarantined on the spot and also
// yields NaN, which every selection path already skips. The model pointer is
// read under RLock but Predict runs unlocked — learners are immutable after
// Fit, and quarantine (re)takes the write lock itself.
func (s *Selector) safePredict(id int, f []float64) (t float64) {
	s.mu.RLock()
	m, ok := s.models[id]
	s.mu.RUnlock()
	if !ok {
		return math.NaN()
	}
	defer func() {
		if r := recover(); r != nil {
			t = math.NaN()
			s.quarantine(id, "predict", fmt.Sprint(r))
		}
	}()
	return m.Predict(f)
}

// fallback answers a Select call with the library's default decision logic.
func (s *Selector) fallback(nodes, ppn int, msize int64, reason string) Prediction {
	s.fallbacks.Add(1)
	obs.Default.Counter("core_select_fallback_total",
		obs.Labels{"learner": s.Learner, "reason": reason}).Inc()
	p := Prediction{ConfigID: mpilib.DefaultID, Label: "library-default",
		Predicted: math.NaN(), Fallback: true, FallbackReason: reason}
	topo, err := s.fbMach.Topo(nodes, ppn)
	if err != nil {
		return p
	}
	id := s.fbSet.Decide(s.fbMach, topo, msize)
	if cfg, err := s.fbSet.Config(id); err == nil {
		p.ConfigID, p.AlgID, p.Label = cfg.ID, cfg.AlgID, cfg.Label()
	}
	return p
}
