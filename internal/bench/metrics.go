package bench

import "mpicollpred/internal/obs"

// Metrics aggregates measurement accounting into an obs registry. One
// Metrics instance typically covers one dataset generation run; the shared
// label set (dataset, machine, lib, coll) distinguishes runs in a snapshot.
type Metrics struct {
	// Measurements counts the measured (non-Skip) cells of a Sweep.
	Measurements *obs.Counter
	// Reps counts individual benchmark repetitions across all measurements.
	Reps *obs.Counter
	// Consumed accumulates the simulated seconds spent benchmarking — the
	// quantity the paper's §V budget bounds a priori.
	Consumed *obs.Gauge
	// Exhausted counts measurements stopped early by the time budget.
	Exhausted *obs.Counter
	// RepSeconds is the distribution of single-repetition makespans.
	RepSeconds *obs.Histogram
	// Retried counts outlier repetitions that were re-measured (see
	// Options.OutlierRetries).
	Retried *obs.Counter
}

// NewMetrics registers the benchmark metric series under the given labels.
// A nil registry means obs.Default.
func NewMetrics(r *obs.Registry, labels obs.Labels) *Metrics {
	if r == nil {
		r = obs.Default
	}
	return &Metrics{
		Measurements: r.Counter("bench_measurements_total", labels),
		Reps:         r.Counter("bench_reps_total", labels),
		Consumed:     r.Gauge("bench_consumed_sim_seconds", labels),
		Exhausted:    r.Counter("bench_budget_exhausted_total", labels),
		RepSeconds:   r.Histogram("bench_rep_sim_seconds", labels),
		Retried:      r.Counter("bench_outlier_retries_total", labels),
	}
}

// record books one finished measurement. Nil-safe: a Sweep without metrics
// pays only the nil check.
func (m *Metrics) record(meas Measurement) {
	if m == nil {
		return
	}
	m.Measurements.Inc()
	m.Reps.Add(int64(meas.Reps()))
	m.Consumed.Add(meas.Consumed)
	if meas.Exhausted {
		m.Exhausted.Inc()
	}
	if meas.Retried > 0 {
		m.Retried.Add(int64(meas.Retried))
	}
	for _, t := range meas.Times {
		m.RepSeconds.Observe(t)
	}
}
