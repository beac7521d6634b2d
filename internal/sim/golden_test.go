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
// feeds its complete observable output into two SHA-256s per (library,
// collective):
//   - the times digest: the bits of every finish time, the makespan, the
//     event count, the Stats counters that follow from the program, each
//     rank's own tracer spans in order, and the RunWithin outcome at bounds
//     below, just below, at and above the makespan;
//   - the schedule digest: the tracer's span sequence across ranks, the
//     Blocked* counters and PeakHeapDepth, all of which record the order in
//     which the engine interleaves the ranks.
//
// A change to the order of the stateful cost model's calls moves the times
// digest (through the noise draws and NIC queues) even when the makespans
// happen to agree. A change to when a rank executes ops that touch only its
// own clock moves the schedule digest alone. Each RunWithin outcome is also
// checked against RunWithin's contract: a run is cut exactly when its
// makespan exceeds the bound, and a run that is not cut returns what Run
// returned.

// goldenTimes and goldenSchedules pin the corpus. A deliberate change to
// simulator semantics must re-record them; a scheduler refactor must not
// move goldenTimes.
var goldenTimes = map[string]string{
	"Intel MPI/allgather": "016cca726abc2b06cdda7ce9a763e15a542bb24f3ea1839ff31afca8d3537f1a",
	"Intel MPI/allreduce": "d63b22f0f359f7c74e9b72d42311890928b19d742c697505eed29a7c0f74301d",
	"Intel MPI/alltoall":  "afb3b8fb215803a3883ecfcae3b0b3e0b825b3c81908f4dc7235f74a9b3214e8",
	"Intel MPI/bcast":     "46fe6a40a2c98dd4585cf9dd821eca85830844aec90aa24c81d03a10337648f6",
	"Intel MPI/gather":    "e94dbd6cc35238de3689e7fbdc3de6ec5658c8606dd8047772e3512976116d5d",
	"Intel MPI/reduce":    "664f45ef1494371e951831dfb5adcd77916c9a7e6cf96f0180e942d1ce6c1b81",
	"Intel MPI/scatter":   "28b87425909c054fa5dbe45c6e411ad42d2e3906f238184917056c19c1a76e34",
	"Open MPI/allgather":  "708466fb6fe30584e31a606d3a11080b3c3f9c785582b6046f76a5c24ee3d585",
	"Open MPI/allreduce":  "cd38fb4ae6a8d3531be338446ea38918ddc05fed26ac1355258b0e725b7a6ee0",
	"Open MPI/alltoall":   "9dc00df1c77bea448c4c60ed5c5e5c68b283b137f1c66236c35f36657b3da301",
	"Open MPI/bcast":      "8915789849e1e84dfb63a9908a47185e42a8e6f24f4f883388ef83675b1772c2",
	"Open MPI/gather":     "e94dbd6cc35238de3689e7fbdc3de6ec5658c8606dd8047772e3512976116d5d",
	"Open MPI/reduce":     "3dd3d7fa879a6780d5521d7428953f1e3f1253865d2fda168901b91631baf388",
	"Open MPI/scatter":    "28b87425909c054fa5dbe45c6e411ad42d2e3906f238184917056c19c1a76e34",
}

var goldenSchedules = map[string]string{
	"Intel MPI/allgather": "ef90b7cd9697a809b93f112c8c7d5b49eb8b2c254d1d00d2df06d23611b4577d",
	"Intel MPI/allreduce": "8e435c0ee43453cae593c4f04b83e5fb5ba4a0459b13fc8b5a2198849bea24b9",
	"Intel MPI/alltoall":  "cec8c1119e972f80cc9df32c004eb2ecdfc261562c8f62ec64934844c1bd03c1",
	"Intel MPI/bcast":     "06234efdfdb3444255704cf2c066c63ed2cea0f810f88fdd49f5f37435850b70",
	"Intel MPI/gather":    "c3bed82b5f5dacd1deab2b1901b37e8398bde5c8bc7fe81aef4de63c23253d4c",
	"Intel MPI/reduce":    "50819bd0d0fdf4639bea14c41e474e9d05b6fc4cd51fac3d6d547d4716266895",
	"Intel MPI/scatter":   "9b342705773672bf5f111b7da7946c901d5b841cb36754e589ab6251186c9e96",
	"Open MPI/allgather":  "ecc16d36d00920ac9f9e8943a859cbdb8a6c3a7725bc116f0f80ae5a67872cfb",
	"Open MPI/allreduce":  "393d880ef1c0460ce92cba6798b9b9fba9dfc5f5c06e69c59892533d5a4b5e46",
	"Open MPI/alltoall":   "db0ff1faddea37813f67138e4f4a0c05207dd627a6ee3a9264947db18b862edf",
	"Open MPI/bcast":      "e7b1192237587bb50d6512f98e6c6bb8717345e281bb46e4097787154701364f",
	"Open MPI/gather":     "c3bed82b5f5dacd1deab2b1901b37e8398bde5c8bc7fe81aef4de63c23253d4c",
	"Open MPI/reduce":     "ed0cd0a8b9f2c004cfb12d5b125865203298ed77641ef4ffc9f271eb99554758",
	"Open MPI/scatter":    "9b342705773672bf5f111b7da7946c901d5b841cb36754e589ab6251186c9e96",
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

// goldenSpan is one tracer span.
type goldenSpan struct {
	rank, peer int32
	kind       sim.OpKind
	bytes      uint32
	start, end float64
	rendezvous bool
}

// goldenHasher folds a group's runs into its times and schedule digests.
type goldenHasher struct {
	times, sched hash.Hash
	buf          [8]byte
	spans        int
	// byRank holds the current run's spans, rank by rank, until the run
	// ends and they go into the times digest.
	byRank [][]goldenSpan
}

func newGoldenHasher() *goldenHasher {
	return &goldenHasher{times: sha256.New(), sched: sha256.New()}
}

func (g *goldenHasher) u64(h hash.Hash, v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	h.Write(g.buf[:])
}

func (g *goldenHasher) f64(h hash.Hash, v float64) { g.u64(h, math.Float64bits(v)) }

func (g *goldenHasher) span(h hash.Hash, s goldenSpan) {
	g.u64(h, uint64(uint32(s.rank)))
	g.u64(h, uint64(s.kind))
	g.u64(h, uint64(uint32(s.peer)))
	g.u64(h, uint64(s.bytes))
	g.f64(h, s.start)
	g.f64(h, s.end)
	if s.rendezvous {
		g.u64(h, 1)
	} else {
		g.u64(h, 0)
	}
}

func (g *goldenHasher) OpSpan(rank int32, kind sim.OpKind, peer int32, bytes uint32, start, end float64, rendezvous bool) {
	s := goldenSpan{rank: rank, peer: peer, kind: kind, bytes: bytes, start: start, end: end, rendezvous: rendezvous}
	g.spans++
	g.span(g.sched, s)
	for int(rank) >= len(g.byRank) {
		g.byRank = append(g.byRank, nil)
	}
	g.byRank[rank] = append(g.byRank[rank], s)
}

// endRun moves the run's per-rank spans into the times digest.
func (g *goldenHasher) endRun() {
	for r, spans := range g.byRank {
		for _, s := range spans {
			g.span(g.times, s)
		}
		g.byRank[r] = spans[:0]
	}
}

func (g *goldenHasher) stats(st *sim.Stats) {
	for _, v := range []int{st.Sends, st.Recvs, st.Computes, st.EagerSends, st.RendezvousSends, st.MessagesMatched} {
		g.u64(g.times, uint64(v))
	}
	for _, v := range []int{st.BlockedSends, st.BlockedRecvs, st.PeakHeapDepth} {
		g.u64(g.sched, uint64(v))
	}
}

// goldenRun digests one (config, topology, size, model, starts) run.
func goldenRun(t *testing.T, g *goldenHasher, eng *sim.Engine, c mpilib.Config, topo netmodel.Topology, m int64, gm goldenModel, start []float64, seed uint64) {
	t.Helper()
	prog := mpilib.BuildProgram(c, topo, m, false)
	eng.CollectStats(true)
	eng.SetTracer(g)
	res, err := eng.Run(prog, netmodel.New(gm.prm, topo, seed, gm.noisy), start, nil)
	eng.SetTracer(nil)
	eng.CollectStats(false)
	if err != nil {
		t.Fatalf("%s on %+v m=%d: %v", c.Label(), topo, m, err)
	}
	g.endRun()
	for _, f := range res.Finish {
		g.f64(g.times, f)
	}
	g.f64(g.times, res.Time)
	g.u64(g.times, uint64(res.Events))
	g.stats(res.Stats)
	for _, frac := range []float64{0.25, 0.75, math.Nextafter(1, 0), 1, 2} {
		bound := res.Time * frac
		got, err := eng.RunWithin(prog, netmodel.New(gm.prm, topo, seed, gm.noisy), start, bound)
		switch {
		case errors.Is(err, sim.ErrExceeded):
			if res.Time <= bound {
				t.Errorf("%s on %+v m=%d: RunWithin cut at bound %v, but the makespan is %v", c.Label(), topo, m, bound, res.Time)
			}
			g.u64(g.times, 1)
		case err != nil:
			t.Fatalf("%s RunWithin: %v", c.Label(), err)
		default:
			if res.Time > bound {
				t.Errorf("%s on %+v m=%d: RunWithin completed at bound %v, but the makespan is %v", c.Label(), topo, m, bound, res.Time)
			}
			if got.Time != res.Time || got.Events != res.Events || !slices.Equal(got.Finish, res.Finish) {
				t.Errorf("%s on %+v m=%d: RunWithin at bound %v gave time %v after %d events, Run %v after %d", c.Label(), topo, m, bound, got.Time, got.Events, res.Time, res.Events)
			}
			g.u64(g.times, 0)
			g.f64(g.times, got.Time)
			g.u64(g.times, uint64(got.Events))
		}
	}
}

func TestGoldenEngineDigests(t *testing.T) {
	eng := sim.NewEngine()
	times, scheds := map[string]string{}, map[string]string{}
	for _, lib := range mpilib.Libraries() {
		for _, collName := range lib.Collectives() {
			set, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			g := newGoldenHasher()
			for _, c := range set.Configs {
				for _, topo := range goldenTopos {
					for _, m := range goldenSizes {
						for mi, gm := range goldenModels {
							seed := sim.Seed(uint64(c.ID), uint64(topo.P()), uint64(m), uint64(mi))
							for _, start := range [][]float64{nil, mixedStarts(topo.P(), gm.startUnit)} {
								goldenRun(t, g, eng, c, topo, m, gm, start, seed)
							}
						}
					}
				}
			}
			key := lib.Name + "/" + collName
			times[key] = hex.EncodeToString(g.times.Sum(nil))
			scheds[key] = hex.EncodeToString(g.sched.Sum(nil))
			t.Logf("%q: times %q, schedule %q, // %d configs, %d spans", key, times[key], scheds[key], len(set.Configs), g.spans)
		}
	}
	for _, d := range []struct {
		name        string
		got, pinned map[string]string
	}{{"times", times, goldenTimes}, {"schedule", scheds, goldenSchedules}} {
		for key, h := range d.got {
			if want, ok := d.pinned[key]; !ok || want != h {
				t.Errorf("%s: %s digest %s, pinned %q", key, d.name, h, want)
			}
		}
		if len(d.got) != len(d.pinned) {
			t.Errorf("corpus has %d groups, %d %s digests pinned", len(d.got), len(d.pinned), d.name)
		}
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
