package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"slices"
	"testing"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// The golden engine corpus: every configuration of both library profiles,
// run on a spread of topologies, cost models and start vectors. Each run
// feeds its complete observable output into one SHA-256 per (library,
// collective): the bits of every finish time, the event count, the Stats
// block, the tracer's span sequence, and the RunWithin outcome at bounds
// below, just below, at and above the makespan. The digests were recorded
// before the scheduler queue was last replaced, so any change to event
// order — and therefore to the order of the stateful cost model's calls —
// fails here even when the makespans happen to agree. Each RunWithin
// outcome is also checked against RunWithin's contract: a cut run's
// makespan exceeds the bound, and a run that is not cut returns what Run
// returned.

// goldenDigests pins the corpus. A deliberate change to simulator
// semantics must re-record them; a scheduler refactor must not.
var goldenDigests = map[string]string{
	"Intel MPI/allgather": "b2986af1739a664bc5a54634473c9417b63e500c335a27d1d541f79ce7e51bde",
	"Intel MPI/allreduce": "eff229c9e9802aca4fb9a03033f884997f130ee930e49e06f8069f5615f9753b",
	"Intel MPI/alltoall":  "03248e078528fbd0a0760fe226ac0db2ba3c98e3938cfd4c4051a2f9d35c9b40",
	"Intel MPI/bcast":     "cd18f0e3a2c0aaf0fbab210e6b233b31bc4daa0cfe60a17220df1f8198fab77a",
	"Intel MPI/gather":    "a462d286ae8eb72ea9599ccfc9e6bafa7dbd38801872aa0d6ad18dc42958b131",
	"Intel MPI/reduce":    "3de7ed310ace93b9d220bfe40584838a275103f8f9933dca0f6f5b605fb94086",
	"Intel MPI/scatter":   "70008ceae294370b5e786a3f590267ed22f1003ee6502491b0364f73b3daafcb",
	"Open MPI/allgather":  "e004f0766b8a0a117448a4bf3a951e62c6f05debfabb23fe3848d1f201fc7bb4",
	"Open MPI/allreduce":  "d9604317d77d78665abf3de807fc17caa8b0073dc0ad391e9f3a502ff3eab6c2",
	"Open MPI/alltoall":   "f22580e4c079797e19e907c13757975f66b577e90be3aa668f3b99c6f9e7ecaf",
	"Open MPI/bcast":      "8a418196d291189a97a1d6e6f926774bb9492d5e63bba98e460635b2d2a9beb0",
	"Open MPI/gather":     "a462d286ae8eb72ea9599ccfc9e6bafa7dbd38801872aa0d6ad18dc42958b131",
	"Open MPI/reduce":     "4048f16aaa54849711a7028e9a570e32446a9445534843b8c0986230289d1836",
	"Open MPI/scatter":    "70008ceae294370b5e786a3f590267ed22f1003ee6502491b0364f73b3daafcb",
}

// goldenTopos covers p = 1, p not a power of two, ppn > 1 under block and
// cyclic placement, and a power of two.
var goldenTopos = []netmodel.Topology{
	{Nodes: 1, PPN: 1},
	{Nodes: 3, PPN: 1},
	{Nodes: 2, PPN: 3},
	{Nodes: 3, PPN: 2, Cyclic: true},
	{Nodes: 4, PPN: 4},
}

// goldenSizes spans eager, rendezvous and segmented messages.
var goldenSizes = []int64{8, 4096, 1 << 18}

// dyadicParams is a noise-free model whose every constant is a power of
// two, so many events land on exactly equal times and the queue's tie
// order decides the outcome.
var dyadicParams = netmodel.Params{
	LInter: 1, GInter: 1.0 / 256, GNic: 1.0 / 512,
	LIntra: 0.5, GIntra: 1.0 / 1024, GMem: 1.0 / 2048,
	OSend: 0.25, ORecv: 0.25, OByte: 1.0 / 65536, Gamma: 1.0 / 4096,
	Eager: 4096, RendezvousL: 2,
}

type goldenModel struct {
	prm   netmodel.Params
	noisy bool
	// startUnit scales the mixed start vector.
	startUnit float64
}

var goldenModels = []goldenModel{
	{prm: dyadicParams, startUnit: 0.5},
	{prm: machine.Hydra().Net, startUnit: 1e-6},
	{prm: machine.Jupiter().Net, noisy: true, startUnit: 3e-6},
}

// mixedStarts puts a third of the ranks' clocks below zero, as clock-outlier
// fault plans do: -unit, 0, +unit, -unit, ...
func mixedStarts(p int, unit float64) []float64 {
	s := make([]float64, p)
	for r := range s {
		s[r] = float64(r%3-1) * unit
	}
	return s
}

// spanHasher folds every tracer span into the run digest.
type spanHasher struct {
	h     hash.Hash
	buf   [8]byte
	spans int
}

func (s *spanHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

func (s *spanHasher) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *spanHasher) OpSpan(rank int32, kind sim.OpKind, peer int32, bytes uint32, start, end float64, rendezvous bool) {
	s.spans++
	s.u64(uint64(uint32(rank)))
	s.u64(uint64(kind))
	s.u64(uint64(uint32(peer)))
	s.u64(uint64(bytes))
	s.f64(start)
	s.f64(end)
	if rendezvous {
		s.u64(1)
	} else {
		s.u64(0)
	}
}

func (s *spanHasher) stats(st *sim.Stats) {
	for _, v := range []int{st.Sends, st.Recvs, st.Computes, st.EagerSends, st.RendezvousSends,
		st.MessagesMatched, st.BlockedSends, st.BlockedRecvs, st.PeakHeapDepth} {
		s.u64(uint64(v))
	}
}

// goldenRun digests one (config, topology, size, model, starts) run.
func goldenRun(t *testing.T, h *spanHasher, eng *sim.Engine, c mpilib.Config, topo netmodel.Topology, m int64, gm goldenModel, start []float64, seed uint64) {
	t.Helper()
	prog := mpilib.BuildProgram(c, topo, m, false)
	eng.CollectStats(true)
	eng.SetTracer(h)
	res, err := eng.Run(prog, netmodel.New(gm.prm, topo, seed, gm.noisy), start, nil)
	eng.SetTracer(nil)
	eng.CollectStats(false)
	if err != nil {
		t.Fatalf("%s on %+v m=%d: %v", c.Label(), topo, m, err)
	}
	for _, f := range res.Finish {
		h.f64(f)
	}
	h.f64(res.Time)
	h.u64(uint64(res.Events))
	h.stats(res.Stats)
	for _, frac := range []float64{0.25, 0.75, math.Nextafter(1, 0), 1, 2} {
		bound := res.Time * frac
		got, err := eng.RunWithin(prog, netmodel.New(gm.prm, topo, seed, gm.noisy), start, bound)
		switch {
		case errors.Is(err, sim.ErrExceeded):
			if res.Time <= bound {
				t.Errorf("%s on %+v m=%d: RunWithin cut at bound %v, but the makespan is %v", c.Label(), topo, m, bound, res.Time)
			}
			h.u64(1)
		case err != nil:
			t.Fatalf("%s RunWithin: %v", c.Label(), err)
		default:
			if got.Time != res.Time || got.Events != res.Events || !slices.Equal(got.Finish, res.Finish) {
				t.Errorf("%s on %+v m=%d: RunWithin at bound %v gave time %v after %d events, Run %v after %d", c.Label(), topo, m, bound, got.Time, got.Events, res.Time, res.Events)
			}
			h.u64(0)
			h.f64(got.Time)
			h.u64(uint64(got.Events))
		}
	}
}

func TestGoldenEngineDigests(t *testing.T) {
	eng := sim.NewEngine()
	got := map[string]string{}
	for _, lib := range mpilib.Libraries() {
		for _, collName := range lib.Collectives() {
			set, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			h := &spanHasher{h: sha256.New()}
			for _, c := range set.Configs {
				for _, topo := range goldenTopos {
					for _, m := range goldenSizes {
						for mi, gm := range goldenModels {
							seed := sim.Seed(uint64(c.ID), uint64(topo.P()), uint64(m), uint64(mi))
							for _, start := range [][]float64{nil, mixedStarts(topo.P(), gm.startUnit)} {
								goldenRun(t, h, eng, c, topo, m, gm, start, seed)
							}
						}
					}
				}
			}
			key := lib.Name + "/" + collName
			got[key] = hex.EncodeToString(h.h.Sum(nil))
			t.Logf("%q: %q, // %d configs, %d spans", key, got[key], len(set.Configs), h.spans)
		}
	}
	for key, d := range got {
		if want, ok := goldenDigests[key]; !ok || want != d {
			t.Errorf("%s: digest %s, pinned %q", key, d, want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("corpus has %d groups, %d pinned", len(got), len(goldenDigests))
	}
}

// spanCounts tallies a run's tracer spans as Stats partitions its ops.
type spanCounts struct{ sim.Stats }

func (c *spanCounts) OpSpan(_ int32, kind sim.OpKind, _ int32, _ uint32, _, _ float64, rendezvous bool) {
	switch {
	case kind == sim.OpCompute:
		c.Computes++
	case kind == sim.OpRecv:
		c.Recvs++
		c.MessagesMatched++
	case rendezvous:
		c.Sends++
		c.RendezvousSends++
	default:
		c.Sends++
		c.EagerSends++
	}
}

// TestStatsEqualSpanCounts runs the golden corpus (all starts at zero) and
// checks that the counters Stats takes from the program equal the counts,
// per kind and per protocol, of the spans the engine reports as it
// executes each op.
func TestStatsEqualSpanCounts(t *testing.T) {
	eng := sim.NewEngine()
	eng.CollectStats(true)
	for _, lib := range mpilib.Libraries() {
		for _, collName := range lib.Collectives() {
			set, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range set.Configs {
				for _, topo := range goldenTopos {
					for _, m := range goldenSizes {
						for mi, gm := range goldenModels {
							seed := sim.Seed(uint64(c.ID), uint64(topo.P()), uint64(m), uint64(mi))
							spans := &spanCounts{}
							eng.SetTracer(spans)
							res, err := eng.Run(mpilib.BuildProgram(c, topo, m, false), netmodel.New(gm.prm, topo, seed, gm.noisy), nil, nil)
							if err != nil {
								t.Fatalf("%s on %+v m=%d: %v", c.Label(), topo, m, err)
							}
							got := *res.Stats
							got.BlockedSends, got.BlockedRecvs, got.PeakHeapDepth = 0, 0, 0
							if got != spans.Stats {
								t.Errorf("%s %s on %+v m=%d model %d: stats %+v, spans %+v", lib.Name, c.Label(), topo, m, mi, got, spans.Stats)
							}
						}
					}
				}
			}
		}
	}
}
