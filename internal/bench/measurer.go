package bench

import (
	"mpicollpred/internal/fault"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
)

// Measurer re-measures single decisions named the way the serving path
// names them: machine, library and collective by name, the configuration
// by id. Each (machine, library, collective) triple is resolved once and
// keeps one Runner with the machine's default options, reps repetitions
// and the fault plan. Like a Runner, it is not safe for concurrent use.
type Measurer struct {
	reps    int
	plan    *fault.Plan
	triples map[[3]string]*measTriple
}

// measTriple is one resolved (machine, library, collective) triple.
type measTriple struct {
	mach   machine.Machine
	set    *mpilib.CollectiveSet
	runner *Runner
}

// NewMeasurer returns a Measurer that runs at most reps repetitions per
// measurement on a machine perturbed by plan (nil: the faithful machine).
func NewMeasurer(reps int, plan *fault.Plan) *Measurer {
	return &Measurer{reps: reps, plan: plan, triples: map[[3]string]*measTriple{}}
}

// Measure benchmarks configuration cfgID of the named portfolio on nodes ×
// ppn processes at message size msize under seed, and returns the median
// repetition time in seconds.
func (m *Measurer) Measure(mach, lib, coll string, cfgID, nodes, ppn int, msize int64, seed uint64) (float64, error) {
	key := [3]string{mach, lib, coll}
	t := m.triples[key]
	if t == nil {
		prof, set, err := mpilib.Resolve(mach, lib, coll)
		if err != nil {
			return 0, err
		}
		o := DefaultOptions(mach)
		o.MaxReps = m.reps
		o.Faults = m.plan
		t = &measTriple{mach: prof, set: set, runner: NewRunner(o)}
		m.triples[key] = t
	}
	cfg, err := t.set.Config(cfgID)
	if err != nil {
		return 0, err
	}
	topo, err := t.mach.Topo(nodes, ppn)
	if err != nil {
		return 0, err
	}
	meas, err := t.runner.Measure(cfg, t.mach.Net, topo, msize, seed, m.reps)
	if err != nil {
		return 0, err
	}
	return meas.Median(), nil
}
