// Package bench is the simulated counterpart of the ReproMPI benchmark used
// by the paper for the benchmarking step. Its two defining features are
// reproduced: (1) a configuration is measured for at most MaxReps
// repetitions OR until a time budget is exhausted, whichever comes first —
// giving the tuning run a predictable upper bound on its duration; and
// (2) repetitions start from a synchronized time window, with residual
// clock-synchronization jitter applied to the per-rank start times.
package bench

import (
	"fmt"
	"math"
	"sort"

	"mpicollpred/internal/fault"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Options controls the measurement loop.
type Options struct {
	// MaxReps caps the repetitions per configuration (paper: 500).
	MaxReps int
	// MaxTime is the simulated-seconds budget per configuration (paper:
	// 0.5 s on SuperMUC-NG, 1 s on Hydra and Jupiter). <= 0 disables it.
	MaxTime float64
	// SyncJitter is the standard deviation of the per-rank start-time
	// offset left over after clock synchronization (ReproMPI's
	// window-based scheme achieves microsecond-level residuals).
	SyncJitter float64
	// Metrics, when non-nil, receives per-measurement accounting
	// (repetitions, consumed budget, exhaustion events). Sweep books it at
	// commit time; a Runner on its own books nothing.
	Metrics *Metrics
	// Faults, when non-nil, perturbs measurements: network faults are
	// installed into the simulated fabric and clock-outlier faults inflate
	// individual per-rank start offsets. Nil (the default) reproduces the
	// fault-free timings bit-for-bit.
	Faults *fault.Plan
	// OutlierRetries is the re-measurement budget per configuration for
	// repetitions flagged as outliers (deviating from the median by more
	// than OutlierK normalized MADs). 0 (the default) disables outlier
	// handling entirely, keeping measurements bit-identical to the
	// pre-robustness harness.
	OutlierRetries int
	// OutlierK is the MAD multiple beyond which a repetition counts as an
	// outlier; <= 0 selects DefaultOutlierK.
	OutlierK float64
}

// DefaultOutlierK is the outlier threshold in normalized-MAD units used when
// Options.OutlierK is unset. 5 flags only gross perturbations (stragglers,
// clock outliers), not the regular lognormal noise tail.
const DefaultOutlierK = 5

// DefaultOptions mirrors the paper's ReproMPI configuration for the given
// machine. The budget is looked up from the machine registry (Table I
// profiles carry their §V benchmark budget); unknown machine names fall back
// to the 1 s budget used on most systems.
func DefaultOptions(machineName string) Options {
	o := Options{MaxReps: 500, MaxTime: 1.0, SyncJitter: 0.3e-6}
	if m, err := machine.ByName(machineName); err == nil && m.BenchBudget > 0 {
		o.MaxTime = m.BenchBudget
	}
	return o
}

// Measurement is the result of benchmarking one configuration on one
// instance.
type Measurement struct {
	// Times holds the per-repetition makespans in simulated seconds, in
	// measurement order.
	Times    []float64
	Consumed float64 // total simulated time spent, including all reps
	// Exhausted reports whether the time budget stopped the loop before
	// MaxReps repetitions completed.
	Exhausted bool
	// Retried counts repetitions that were flagged as outliers and
	// re-measured (see Options.OutlierRetries).
	Retried int
}

// Reps returns the number of repetitions that were run.
func (m Measurement) Reps() int { return len(m.Times) }

// Quantile returns the q-quantile (0 <= q <= 1) of the repetition times with
// linear interpolation between order statistics, so Quantile(0.5) equals the
// textbook median for both odd and even repetition counts. A measurement
// with zero repetitions has no quantiles: the result is NaN (as for every
// other summary statistic of an empty Measurement), never a fake 0 that a
// selector could mistake for an infinitely fast configuration. Times is
// left in measurement order.
func (m Measurement) Quantile(q float64) float64 {
	s := append([]float64(nil), m.Times...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	// frac == 0 degenerates to s[lo] exactly, so no special case is needed.
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the median repetition time, the paper's summary statistic.
func (m Measurement) Median() float64 { return m.Quantile(0.5) }

// MAD returns the median absolute deviation from the median — the robust
// spread estimate behind outlier flagging. Multiply by 1.4826 to estimate a
// Gaussian standard deviation. Zero reps yield NaN.
func (m Measurement) MAD() float64 {
	if len(m.Times) == 0 {
		return math.NaN()
	}
	med := m.Median()
	dev := make([]float64, len(m.Times))
	for i, t := range m.Times {
		dev[i] = math.Abs(t - med)
	}
	return Measurement{Times: dev}.Median()
}

// madNormal is the consistency constant relating MAD to the standard
// deviation of a normal distribution.
const madNormal = 1.4826

// outlierIndices returns the repetition indices whose time deviates from the
// median by more than k normalized MADs. A zero MAD (all reps identical)
// flags nothing.
func (m Measurement) outlierIndices(k float64) []int {
	if len(m.Times) < 3 {
		return nil
	}
	med := m.Median()
	mad := m.MAD()
	if !(mad > 0) {
		return nil
	}
	thresh := k * madNormal * mad
	var out []int
	for i, t := range m.Times {
		if math.Abs(t-med) > thresh {
			out = append(out, i)
		}
	}
	return out
}

// Runner executes measurements. It is not safe for concurrent use; create
// one Runner per goroutine.
type Runner struct {
	eng   *sim.Engine
	opts  Options
	start []float64
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.MaxReps < 1 {
		opts.MaxReps = 1
	}
	return &Runner{eng: sim.NewEngine(), opts: opts}
}

// Measure benchmarks configuration cfg for the instance (topo, m) on the
// network prm for at most maxReps repetitions, further capped at
// Options.MaxReps and stopped early by the time budget. seed keys all noise
// deterministically; distinct repetitions derive distinct noise streams
// from it. The dataset generator passes fewer repetitions for expensive
// large-message instances, exactly what the ReproMPI time budget achieves
// on real hardware.
func (r *Runner) Measure(cfg mpilib.Config, prm netmodel.Params, topo netmodel.Topology, m int64, seed uint64, maxReps int) (Measurement, error) {
	if maxReps > r.opts.MaxReps {
		maxReps = r.opts.MaxReps
	}
	if maxReps < 1 {
		maxReps = 1
	}
	prog := mpilib.BuildProgram(cfg, topo, m, false)
	p := topo.P()
	if cap(r.start) < p {
		r.start = make([]float64, p)
	}
	r.start = r.start[:p]

	var meas Measurement
	inj := r.opts.Faults.Injector(topo.Nodes)
	model := netmodel.New(prm, topo, seed, true)
	model.SetFaults(inj)
	for rep := 0; rep < maxReps; rep++ {
		repSeed := sim.Seed(seed, uint64(rep)+1)
		t, err := r.runRep(prog, model, repSeed, rep, inj)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench %s topo=%dx%d m=%d: %w", cfg.Label(), topo.Nodes, topo.PPN, m, err)
		}
		meas.Times = append(meas.Times, t)
		meas.Consumed += t
		if r.opts.MaxTime > 0 && meas.Consumed >= r.opts.MaxTime {
			meas.Exhausted = len(meas.Times) < maxReps
			break
		}
	}
	if r.opts.OutlierRetries > 0 {
		if err := r.retryOutliers(&meas, prog, model, seed, inj); err != nil {
			return Measurement{}, fmt.Errorf("bench %s topo=%dx%d m=%d: %w", cfg.Label(), topo.Nodes, topo.PPN, m, err)
		}
	}
	return meas, nil
}

// runRep executes one benchmark repetition: reset the model's noise stream
// and resource state, draw the per-rank start offsets (clock-sync jitter
// plus any injected clock outliers), and run the schedule.
func (r *Runner) runRep(prog *sim.Program, model *netmodel.Model, repSeed uint64, rep int, inj *fault.Injector) (float64, error) {
	model.Reset(repSeed)
	jrng := sim.NewRNG(sim.Seed(repSeed, 0xA11CE))
	for i := range r.start {
		j := jrng.Norm() * r.opts.SyncJitter
		if j < 0 {
			j = -j
		}
		if inj != nil {
			j += inj.StartOutlier(rep, i)
		}
		r.start[i] = j
	}
	res, err := r.eng.Run(prog, model, r.start, nil)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// retryOutliers re-measures repetitions flagged as outliers, spending at
// most the Options.OutlierRetries budget. A flagged repetition is re-run
// once as a repetition of its own — a fresh seed and a repetition index
// past Options.MaxReps, so the retry draws its own clock outliers too — and
// its time replaced with the re-measurement: the simulated analogue of
// ReproMPI discarding and repeating perturbed runs. The extra simulated
// time is charged to Consumed so the budget accounting stays honest.
func (r *Runner) retryOutliers(meas *Measurement, prog *sim.Program, model *netmodel.Model, seed uint64, inj *fault.Injector) error {
	k := r.opts.OutlierK
	if k <= 0 {
		k = DefaultOutlierK
	}
	for i, idx := range meas.outlierIndices(k) {
		if i == r.opts.OutlierRetries {
			break
		}
		retrySeed := sim.Seed(seed, 0x5E7F, uint64(idx)+1)
		t, err := r.runRep(prog, model, retrySeed, r.opts.MaxReps+i, inj)
		if err != nil {
			return err
		}
		meas.Times[idx] = t
		meas.Consumed += t
		meas.Retried++
	}
	return nil
}

// Budget returns the worst-case simulated duration of measuring n
// configurations under these options — the "upper bound on the duration of
// the experiments" the paper highlights as essential on shared machines.
func (o Options) Budget(nConfigs int) float64 {
	if o.MaxTime <= 0 {
		return 0
	}
	return float64(nConfigs) * o.MaxTime
}
