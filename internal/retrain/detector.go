// Drift detection: the loop turns each observed-vs-predicted comparison
// into a boolean error event (|relative error| above tolerance) and feeds a
// per-model EWMA rate monitor — the same primitive the serving telemetry
// uses — plus a hysteresis counter on top: drift is declared only after the
// monitor has sat at breach for several consecutive observations, so a
// single outlier measurement can never trigger a retraining cycle.

package retrain

import (
	"sort"

	"mpicollpred/internal/obs"
)

const (
	// detTolerance is the |relative error| above which one observation
	// counts as an error event: observed more than ~2x/0.5x off.
	detTolerance = 0.5
	// detAlpha is the EWMA weight of a new event. The retrain loop sees far
	// fewer events than the request path, so it forgets faster than the
	// serving monitors.
	detAlpha = 0.2
	// detWarn and detBreach are the EWMA error-rate thresholds.
	detWarn, detBreach = 0.3, 0.5
	// detMinEvents is the monitor warm-up: below it the level stays ok.
	detMinEvents = 8
	// detHysteresis is how many consecutive observations must sit at
	// breach before drift is declared.
	detHysteresis = 4
)

// modelState is one served model's detector state. It is guarded by the
// loop's mutex, not its own.
type modelState struct {
	monitor      *obs.RateMonitor
	breachStreak int
	observations uint64
	errorEvents  uint64
	drifts       uint64
	// minGen ignores audit records from generations before the last
	// deploy: they were decided by the replaced model and would re-trigger
	// drift against the new one.
	minGen     uint64
	lastRelErr float64
}

// detector owns the per-model drift state.
type detector struct {
	models map[string]*modelState
}

func newDetector() *detector {
	return &detector{models: map[string]*modelState{}}
}

// newMonitor is a model's EWMA error-rate monitor, warm-up included.
func newMonitor() *obs.RateMonitor {
	m := obs.NewRateMonitor(detAlpha, detWarn, detBreach)
	m.SetMinEvents(detMinEvents)
	return m
}

func (d *detector) state(model string) *modelState {
	st := d.models[model]
	if st == nil {
		st = &modelState{monitor: newMonitor()}
		d.models[model] = st
	}
	return st
}

// observe feeds one comparison and reports whether drift is declared by it:
// the monitor must be at breach for detHysteresis consecutive observations.
// Returns false for every observation after the declaring one until reset —
// a cycle is already running or just failed; re-declaring immediately would
// hot-loop the retrainer.
func (d *detector) observe(model string, relErr float64) bool {
	st := d.state(model)
	st.observations++
	st.lastRelErr = relErr
	event := abs(relErr) > detTolerance
	if event {
		st.errorEvents++
	}
	st.monitor.Observe(event)
	if st.monitor.Level() == obs.LevelBreach {
		st.breachStreak++
	} else {
		st.breachStreak = 0
	}
	if st.breachStreak == detHysteresis {
		st.drifts++
		return true
	}
	return false
}

// reset re-arms a model's detector after a deploy attempt: a fresh monitor
// (full warm-up again) and a generation floor below which audit records are
// ignored as stale.
func (d *detector) reset(model string, minGen uint64) {
	st := d.state(model)
	st.monitor = newMonitor()
	st.breachStreak = 0
	if minGen > st.minGen {
		st.minGen = minGen
	}
}

// names returns the tracked model names, sorted.
func (d *detector) names() []string {
	out := make([]string, 0, len(d.models))
	for name := range d.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
