package sim_test

import (
	"math"
	"testing"

	"mpicollpred/internal/fault"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// floorFaults is the fault plan of the floor oracle: a straggler node, a
// flapping degraded NIC and a noise burst, so every fault factor of the
// model's transfers takes part.
const floorFaults = "straggler:node=0,factor=4;nic:node=1,factor=8,period=2e-6,duty=0.5;noise:sigma=0.5,start=0,dur=5e-6"

// floorChecker fails the test on any tracer span shorter than the cost
// model's floor for its op. A span and a floor are differently rounded
// sums, so the span may fall short by a few units in the last place of
// its end time.
type floorChecker struct {
	t     *testing.T
	model sim.CostModel
	what  string
	spans int
}

func (f *floorChecker) OpSpan(rank int32, kind sim.OpKind, peer int32, bytes uint32, start, end float64, rendezvous bool) {
	f.spans++
	floor := f.model.MinCost(kind, bytes)
	if end-start < floor-0x1p-40*math.Max(math.Abs(start), math.Abs(end)) {
		f.t.Fatalf("%s: rank %d op kind %d (%d B, peer %d, rendezvous %v) took %v, below its floor %v",
			f.what, rank, kind, bytes, peer, rendezvous, end-start, floor)
	}
}

// startBound is the bound RunWithin checks before the first event: the
// largest rank start plus the floors of all of the rank's ops, measured
// from the earliest start. It is computed here from the expanded op
// streams, independently of the engine's folded suffix sums.
func startBound(prog *sim.Program, model sim.CostModel, start []float64) float64 {
	minStart, maxEnd := math.Inf(1), math.Inf(-1)
	for r := 0; r < prog.NumRanks(); r++ {
		t := 0.0
		if start != nil {
			t = start[r]
		}
		minStart = math.Min(minStart, t)
		ops := prog.Expand(r)
		if len(ops) == 0 {
			continue
		}
		for _, op := range ops {
			t += model.MinCost(op.Kind, op.Bytes)
		}
		maxEnd = math.Max(maxEnd, t)
	}
	return maxEnd - minStart
}

// TestMinCostIsAFloor is the oracle for the cost model's floors, over the
// golden corpus (tie-heavy, machine and noisy models, start vectors with
// negative clocks) plus a fault plan, for every configuration of both
// libraries: every op takes at least its floor, and the start-time bound
// RunWithin cuts on is at most the makespan.
func TestMinCostIsAFloor(t *testing.T) {
	plan, err := fault.Parse(floorFaults)
	if err != nil {
		t.Fatal(err)
	}
	// The golden models run fault-free; one more runs under the plan.
	type floorModel struct {
		goldenModel
		plan *fault.Plan
	}
	var models []floorModel
	for _, gm := range goldenModels {
		models = append(models, floorModel{goldenModel: gm})
	}
	models = append(models, floorModel{goldenModel{prm: machine.Hydra().Net, noisy: true, startUnit: 1e-6}, plan})
	eng := sim.NewEngine()
	for _, lib := range mpilib.Libraries() {
		for _, collName := range lib.Collectives() {
			set, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range set.Configs {
				for _, topo := range goldenTopos {
					for _, m := range goldenSizes {
						prog := mpilib.BuildProgram(c, topo, m, false)
						for mi, gm := range models {
							for _, start := range [][]float64{nil, mixedStarts(topo.P(), gm.startUnit)} {
								model := netmodel.New(gm.prm, topo, sim.Seed(uint64(c.ID), uint64(m), uint64(mi)), gm.noisy)
								if gm.plan != nil {
									model.SetFaults(gm.plan.Injector(topo.Nodes))
								}
								fc := &floorChecker{t: t, model: model, what: lib.Name + "/" + c.Label()}
								eng.SetTracer(fc)
								res, err := eng.Run(prog, model, start, nil)
								eng.SetTracer(nil)
								if err != nil {
									t.Fatalf("%s on %+v m=%d: %v", fc.what, topo, m, err)
								}
								if fc.spans != res.Events {
									t.Fatalf("%s on %+v m=%d: %d spans for %d events", fc.what, topo, m, fc.spans, res.Events)
								}
								if lb := startBound(prog, model, start); lb > res.Time*(1+0x1p-30) {
									t.Errorf("%s on %+v m=%d, model %d, starts %v: start-time bound %v exceeds the makespan %v",
										fc.what, topo, m, mi, start != nil, lb, res.Time)
								}
							}
						}
					}
				}
			}
		}
	}
}
