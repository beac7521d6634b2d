package audit

import (
	"fmt"
	"math"
	"sort"

	"mpicollpred/internal/obs"
	"mpicollpred/internal/tablefmt"
)

// Drift thresholds: the fallback-rate and envelope-violation EWMAs (weight
// DriftAlpha) are shared by the live server and the log replay, so both
// agree; the prediction-shift monitor compares the median served prediction
// of the log's first and second half and flags multiplicative shifts.
const (
	DriftAlpha          = 0.05
	DriftFallbackWarn   = 0.10
	DriftFallbackBreach = 0.30
	DriftShiftWarn      = 1.5
	DriftShiftBreach    = 3.0
)

// FallbackMonitors are one model's fallback-rate and envelope-violation
// EWMA monitors. The live server and the log replay both run this pair, so
// both agree on what "drifting" means.
type FallbackMonitors struct {
	// Fallback tracks the rate of fallback decisions.
	Fallback *obs.RateMonitor
	// Envelope tracks the rate of fallbacks for queries outside the
	// model's training envelope.
	Envelope *obs.RateMonitor
}

// NewFallbackMonitors returns a fresh pair at the drift thresholds.
func NewFallbackMonitors() FallbackMonitors {
	return FallbackMonitors{
		Fallback: obs.NewRateMonitor(DriftAlpha, DriftFallbackWarn, DriftFallbackBreach),
		Envelope: obs.NewRateMonitor(DriftAlpha, DriftFallbackWarn, DriftFallbackBreach),
	}
}

// Observe folds one decision, its fallback flag and reason, into the pair.
func (m FallbackMonitors) Observe(fallback bool, reason string) {
	m.Fallback.Observe(fallback)
	m.Envelope.Observe(fallback && reason == "extrapolation")
}

// ModelDrift is one model's drift verdict.
type ModelDrift struct {
	Model         string
	Requests      int
	FallbackRate  float64
	FallbackLevel obs.MonitorLevel
	EnvelopeRate  float64
	EnvelopeLevel obs.MonitorLevel
	// EarlyP50/LateP50 are the median served predictions of the two log
	// halves; Shift is late/early (NaN when either half has none).
	EarlyP50   float64
	LateP50    float64
	Shift      float64
	ShiftLevel obs.MonitorLevel
}

// Level is the model's overall verdict: the worst of its monitors.
func (d ModelDrift) Level() obs.MonitorLevel {
	worst := d.FallbackLevel
	if d.EnvelopeLevel > worst {
		worst = d.EnvelopeLevel
	}
	if d.ShiftLevel > worst {
		worst = d.ShiftLevel
	}
	return worst
}

// DriftReport holds per-model drift verdicts in sorted model order.
type DriftReport struct {
	Models []ModelDrift
}

// Drift replays the log's records (in log order) through the same EWMA
// monitors the live server runs, and splits each model's served predictions
// into halves to detect distribution shift. Deterministic for a given log.
func Drift(recs []Record) *DriftReport {
	type state struct {
		monitors FallbackMonitors
		preds    []float64
		requests int
	}
	byModel := map[string]*state{}
	for _, r := range recs {
		st := byModel[r.Model]
		if st == nil {
			st = &state{monitors: NewFallbackMonitors()}
			byModel[r.Model] = st
		}
		st.requests++
		st.monitors.Observe(r.Fallback, r.FallbackReason)
		if r.PredictedSeconds != nil {
			st.preds = append(st.preds, *r.PredictedSeconds)
		}
	}

	rep := &DriftReport{}
	names := make([]string, 0, len(byModel))
	for name := range byModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := byModel[name]
		d := ModelDrift{
			Model:         name,
			Requests:      st.requests,
			FallbackRate:  st.monitors.Fallback.Rate(),
			FallbackLevel: st.monitors.Fallback.Level(),
			EnvelopeRate:  st.monitors.Envelope.Rate(),
			EnvelopeLevel: st.monitors.Envelope.Level(),
			EarlyP50:      math.NaN(),
			LateP50:       math.NaN(),
			Shift:         math.NaN(),
		}
		half := len(st.preds) / 2
		if half > 0 {
			d.EarlyP50 = obs.Quantile(st.preds[:half], 0.5)
			d.LateP50 = obs.Quantile(st.preds[half:], 0.5)
			d.Shift = d.LateP50 / d.EarlyP50
			shift := d.Shift
			if shift < 1 && shift > 0 {
				shift = 1 / shift
			}
			switch {
			case math.IsNaN(shift) || shift >= DriftShiftBreach:
				d.ShiftLevel = obs.LevelBreach
			case shift >= DriftShiftWarn:
				d.ShiftLevel = obs.LevelWarn
			}
		}
		rep.Models = append(rep.Models, d)
	}
	return rep
}

// Render formats the drift report as byte-stable text.
func (r *DriftReport) Render() string {
	t := &tablefmt.Table{
		Title: "Drift report: audit log replayed through the serving monitors",
		Headers: []string{"model", "requests", "fb rate", "fb level", "env rate", "env level",
			"p50 early", "p50 late", "shift", "shift level", "verdict"},
	}
	for _, d := range r.Models {
		t.AddRow(d.Model, tablefmt.I(d.Requests),
			tablefmt.F(d.FallbackRate, 3), d.FallbackLevel.String(),
			tablefmt.F(d.EnvelopeRate, 3), d.EnvelopeLevel.String(),
			tablefmt.G(d.EarlyP50), tablefmt.G(d.LateP50),
			tablefmt.F(d.Shift, 2), d.ShiftLevel.String(), d.Level().String())
	}
	return t.String() + fmt.Sprintf("\nfallback thresholds: warn %.2f breach %.2f (EWMA alpha %g); "+
		"shift thresholds: warn %.1fx breach %.1fx (either direction)\n",
		DriftFallbackWarn, DriftFallbackBreach, DriftAlpha, DriftShiftWarn, DriftShiftBreach)
}
