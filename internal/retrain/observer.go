// The observation inlet: every audited decision is re-measured through the
// simulator playing the role of the real machine. Installing a fault plan
// into the measurement runner makes the "machine" drift away from what the
// served models were trained on — the knob the drift scenario and the CI
// smoke turn. Measurement seeds come from the retrain domain of the seed
// registry, so observation streams never collide with benchmarking or
// audit-replay streams for the same instance.

package retrain

import (
	"fmt"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/bench"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/sim"
)

// obsKey identifies one measurement; served predictions do not enter it —
// the observed runtime depends only on what ran where.
type obsKey struct {
	mach, lib, coll string
	nodes, ppn      int
	msize           int64
	configID        int
}

// observerMemoCap bounds the measurement memo. Real tuning traffic repeats
// a small instance pool, so the memo normally saturates far below the cap;
// when it does fill, it is cleared wholesale — deterministic given the
// record order, unlike any usage-based eviction.
const observerMemoCap = 4096

// observer measures audited decisions in the simulator.
type observer struct {
	plan   *fault.Plan // nil = faithful machine, non-nil = drifted machine
	meas   *bench.Measurer
	memo   map[obsKey]float64
	resets uint64
}

func newObserver(plan *fault.Plan) *observer {
	o := &observer{}
	o.setPlan(plan)
	return o
}

// setPlan swaps the fault plan mid-run (the scenario's machine shift). The
// memo and the measurer's runners measure the old machine, so both are
// dropped.
func (o *observer) setPlan(plan *fault.Plan) {
	o.plan = plan
	o.meas = bench.NewMeasurer(measureReps, plan)
	o.memo = map[obsKey]float64{}
}

// observe re-measures one audited decision and returns the observed
// runtime in seconds.
func (o *observer) observe(rec audit.Record) (float64, error) {
	k := obsKey{mach: rec.Machine, lib: rec.Lib, coll: rec.Coll,
		nodes: rec.Nodes, ppn: rec.PPN, msize: rec.Msize, configID: rec.ConfigID}
	if t, ok := o.memo[k]; ok {
		return t, nil
	}
	seed := sim.DomainSeed(sim.DomainRetrain,
		uint64(rec.ConfigID), uint64(rec.Nodes), uint64(rec.PPN), uint64(rec.Msize))
	t, err := o.meas.Measure(rec.Machine, rec.Lib, rec.Coll, rec.ConfigID, rec.Nodes, rec.PPN, rec.Msize, seed)
	if err != nil {
		return 0, fmt.Errorf("retrain: observing %s %dx%d m=%d: %w",
			rec.Model, rec.Nodes, rec.PPN, rec.Msize, err)
	}
	if len(o.memo) >= observerMemoCap {
		o.memo = map[obsKey]float64{}
		o.resets++
	}
	o.memo[k] = t
	return t, nil
}
