package sim_test

import (
	"math"
	"testing"

	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// scaleTimes returns prm with every time-valued field, latencies, overheads
// and per-byte costs alike, multiplied by 2^k. Eager is a size and Sigma a
// factor, so both stay.
func scaleTimes(prm netmodel.Params, k int) netmodel.Params {
	for _, f := range []*float64{&prm.LInter, &prm.GInter, &prm.GNic, &prm.LIntra, &prm.GIntra, &prm.GMem,
		&prm.OSend, &prm.ORecv, &prm.OByte, &prm.Gamma, &prm.RendezvousL} {
		*f = math.Ldexp(*f, k)
	}
	return prm
}

// TestMakespanScalesWithTimeUnit is a metamorphic oracle over the golden
// corpus: scaling every time of the cost model, and the start times, by a
// power of two changes only the exponent of every sum, product and
// comparison the engine and the model make, so a noise-free, fault-free
// run must finish every rank at exactly the scaled time, after the same
// events.
func TestMakespanScalesWithTimeUnit(t *testing.T) {
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
						for _, gm := range goldenModels {
							for _, start := range [][]float64{nil, mixedStarts(topo.P(), gm.startUnit)} {
								base, err := eng.Run(prog, netmodel.New(gm.prm, topo, 1, false), start, nil)
								if err != nil {
									t.Fatalf("%s/%s on %+v m=%d: %v", lib.Name, c.Label(), topo, m, err)
								}
								for _, k := range []int{-7, 5} {
									var scaled []float64
									if start != nil {
										scaled = make([]float64, len(start))
										for r, s := range start {
											scaled[r] = math.Ldexp(s, k)
										}
									}
									res, err := eng.Run(prog, netmodel.New(scaleTimes(gm.prm, k), topo, 1, false), scaled, nil)
									if err != nil {
										t.Fatalf("%s/%s on %+v m=%d, times x2^%d: %v", lib.Name, c.Label(), topo, m, k, err)
									}
									if res.Events != base.Events || res.Time != math.Ldexp(base.Time, k) {
										t.Errorf("%s/%s on %+v m=%d, starts %t, times x2^%d: makespan %v after %d events, want %v after %d",
											lib.Name, c.Label(), topo, m, start != nil, k, res.Time, res.Events, math.Ldexp(base.Time, k), base.Events)
										continue
									}
									for r, f := range res.Finish {
										if f != math.Ldexp(base.Finish[r], k) {
											t.Errorf("%s/%s on %+v m=%d, starts %t, times x2^%d: rank %d finishes at %v, want %v",
												lib.Name, c.Label(), topo, m, start != nil, k, r, f, math.Ldexp(base.Finish[r], k))
											break
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
