package mpilib

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
)

// IntelMPI returns the Intel MPI 2019-like library profile. Its default
// decision logic consults a tuning table computed by exhaustive search,
// pruned by a makespan bound, over the portfolio on the machine's reference
// system (the simulated stand-in for Intel's factory mpitune tables) — which
// is why the paper finds the Intel defaults already near-optimal.
func IntelMPI() *Library {
	lib := &Library{
		Name:    "Intel MPI",
		Version: "2019",
		collectives: map[string]*CollectiveSet{
			Bcast:     intelBcast(),
			Allreduce: intelAllreduce(),
			Alltoall:  intelAlltoall(),
			Reduce:    intelReduce(),
			Allgather: intelAllgather(),
			Gather:    intelGather(),
			Scatter:   intelScatter(),
		},
	}
	for _, s := range lib.collectives {
		s.decide = func(mach machine.Machine, qs []Query) []int {
			return fastestConfigs(s.Selectable(), mach.RefNet, qs)
		}
	}
	return lib
}

// fastestConfigs returns, per query, the id of the configuration with the
// smallest noise-free makespan, the lowest id on ties, and 1 when every
// schedule fails. Every (query, configuration) pair is one item of a single
// par.Run, query-major and in id order, so the workers never wait for a
// query's slowest configuration before starting the next query; each run
// builds its program afresh on its worker's engine. Each query's runs are
// bounded by the best makespan completed so far for that query: work
// lowers the query's bound as soon as its run completes, not when the run
// commits. A run is cut only when its makespan is strictly greater than a
// completed one, so every configuration attaining a query's minimum
// completes, and the argmin in commit, in id order with strict <, is the
// plain exhaustive one whatever the scheduling.
func fastestConfigs(cfgs []Config, prm netmodel.Params, qs []Query) []int {
	workers := runtime.GOMAXPROCS(0)
	engs := make([]*sim.Engine, workers)
	// bounds[q] holds the bits of query q's best completed makespan.
	// Makespans are non-negative, and non-negative float64s order like
	// their bits.
	bounds := make([]atomic.Uint64, len(qs))
	bestID := make([]int, len(qs))
	bestT := make([]float64, len(qs))
	for q := range qs {
		bounds[q].Store(math.Float64bits(math.Inf(1)))
		bestID[q], bestT[q] = 1, math.Inf(1)
	}
	n := len(cfgs)
	// Neither callback fails and nothing stops the run, so Run returns nil.
	_ = par.Run(len(qs)*n, workers, nil,
		func(w, i int) (float64, error) {
			q, bound := qs[i/n], &bounds[i/n]
			if engs[w] == nil {
				engs[w] = sim.NewEngine()
			}
			prog := BuildProgram(cfgs[i%n], q.Topo, q.M, false)
			res, err := engs[w].RunWithin(prog, netmodel.New(prm, q.Topo, 1, false), nil, math.Float64frombits(bound.Load()))
			if err != nil {
				return math.NaN(), nil // cut, or a failing schedule: neither can be the default
			}
			for t := math.Float64bits(res.Time); ; {
				cur := bound.Load()
				if t >= cur || bound.CompareAndSwap(cur, t) {
					break
				}
			}
			return res.Time, nil
		},
		func(i int, t float64) error {
			if q := i / n; t < bestT[q] { // false for NaN
				bestID[q], bestT[q] = cfgs[i%n].ID, t
			}
			return nil
		})
	return bestID
}

// intelBcast provides 12 broadcast algorithms (Intel MPI 2019 exposes its
// bcast portfolio through I_MPI_ADJUST_BCAST=1..14; we model 12 of them):
// 1 linear, 2 binomial, 3 knomial(4), 4 knomial(8), 5 pipeline, 6 chain,
// 7 split_binary, 8 binary, 9 double_tree, 10 scatter_allgather,
// 11 scatter_ring_allgather, 12 topology_aware (two-level).
func intelBcast() *CollectiveSet {
	s := &CollectiveSet{Coll: Bcast}
	s.add(1, "linear", coll.BcastLinear, coll.Params{})
	s.add(2, "binomial", coll.BcastBinomial, coll.Params{})
	s.add(3, "knomial", coll.BcastKnomial, coll.Params{Fanout: 4})
	s.add(4, "knomial", coll.BcastKnomial, coll.Params{Fanout: 8})
	for _, seg := range []int64{4 << 10, 16 << 10, 64 << 10} {
		s.add(5, "pipeline", coll.BcastPipeline, coll.Params{Seg: seg})
	}
	for _, seg := range []int64{4 << 10, 16 << 10, 64 << 10} {
		s.add(6, "chain", coll.BcastChain, coll.Params{Seg: seg, Fanout: 4})
	}
	s.add(7, "split_binary", coll.BcastSplitBinary, coll.Params{Seg: 8 << 10})
	s.add(8, "binary", coll.BcastBinary, coll.Params{Seg: 8 << 10})
	s.add(9, "double_tree", coll.BcastDoubleTree, coll.Params{Seg: 16 << 10})
	s.add(10, "scatter_allgather", coll.BcastScatterAllgather, coll.Params{})
	s.add(11, "scatter_ring_allgather", coll.BcastScatterRingAllgather, coll.Params{})
	for _, radix := range []int{2, 4} {
		s.add(12, "topology_aware", coll.BcastHierarchical, coll.Params{Seg: 16 << 10, Fanout: radix})
	}
	return s
}

// intelAllreduce provides 16 allreduce algorithms (I_MPI_ADJUST_ALLREDUCE
// exposes a comparable portfolio): exchange-based, ring-based, tree-based
// and SHM/topology-aware two-level schemes.
func intelAllreduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Allreduce}
	s.add(1, "recursive_doubling", coll.AllreduceRecursiveDoubling, coll.Params{})
	s.add(2, "rabenseifner", coll.AllreduceRabenseifner, coll.Params{})
	s.add(3, "reduce_bcast", coll.AllreduceNonoverlapping, coll.Params{})
	s.add(4, "ring", coll.AllreduceRing, coll.Params{})
	s.add(5, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 1 << 10})
	s.add(6, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 4 << 10})
	s.add(7, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 16 << 10})
	s.add(8, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 64 << 10})
	s.add(9, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 128 << 10})
	s.add(10, "knomial", coll.AllreduceKnomial, coll.Params{Fanout: 4})
	s.add(11, "knomial", coll.AllreduceKnomial, coll.Params{Fanout: 8})
	s.add(12, "allgather_reduce", coll.AllreduceAllgatherReduce, coll.Params{})
	s.add(13, "linear", coll.AllreduceLinear, coll.Params{})
	s.add(14, "shm_rdoubling", coll.AllreduceHierarchical, coll.Params{})
	s.add(15, "shm_ring", coll.AllreduceHierarchical, coll.Params{Fanout: 2})
	s.add(16, "shm_rabenseifner", coll.AllreduceHierarchical, coll.Params{Fanout: 3})
	return s
}

// intelAlltoall provides 5 alltoall algorithms: 1 bruck, 2 isend_irecv
// (linear), 3 pairwise, 4 plum (windowed spread), 5 topology-aware
// node aggregation.
func intelAlltoall() *CollectiveSet {
	s := &CollectiveSet{Coll: Alltoall}
	s.add(1, "bruck", coll.AlltoallBruck, coll.Params{})
	s.add(2, "isend_irecv", coll.AlltoallLinear, coll.Params{})
	s.add(3, "pairwise", coll.AlltoallPairwise, coll.Params{})
	for _, w := range []int{4, 8, 16, 32} {
		s.add(4, "plum", coll.AlltoallSpread, coll.Params{Fanout: w})
	}
	s.add(5, "topology_aware", coll.AlltoallHierarchical, coll.Params{})
	return s
}

// intelReduce: 1 shumilin (linear), 2 binomial, 3 knomial(4), 4 knomial(8),
// 5 pipelined binomial.
func intelReduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Reduce}
	s.add(1, "shumilin", coll.ReduceLinear, coll.Params{})
	s.add(2, "binomial", coll.ReduceBinomial, coll.Params{})
	s.add(3, "knomial", coll.ReduceKnomial, coll.Params{Fanout: 4})
	s.add(4, "knomial", coll.ReduceKnomial, coll.Params{Fanout: 8})
	for _, seg := range []int64{16 << 10, 64 << 10} {
		s.add(5, "pipelined", coll.ReducePipelined, coll.Params{Seg: seg})
	}
	return s
}

// intelAllgather: 1 recursive_doubling, 2 bruck, 3 ring, 4 topology-neutral
// linear, 5 neighbor exchange.
func intelAllgather() *CollectiveSet {
	s := &CollectiveSet{Coll: Allgather}
	s.add(1, "recursive_doubling", coll.AllgatherRecursiveDoubling, coll.Params{})
	s.add(2, "bruck", coll.AllgatherBruck, coll.Params{})
	s.add(3, "ring", coll.AllgatherRing, coll.Params{})
	s.add(4, "linear", coll.AllgatherLinear, coll.Params{})
	s.add(5, "neighbor", coll.AllgatherNeighborExchange, coll.Params{})
	return s
}

// intelGather: 1 linear, 2 binomial.
func intelGather() *CollectiveSet {
	s := &CollectiveSet{Coll: Gather}
	s.add(1, "linear", coll.GatherLinear, coll.Params{})
	s.add(2, "binomial", coll.GatherBinomial, coll.Params{})
	return s
}

// intelScatter: 1 linear, 2 binomial.
func intelScatter() *CollectiveSet {
	s := &CollectiveSet{Coll: Scatter}
	s.add(1, "linear", coll.ScatterLinear, coll.Params{})
	s.add(2, "binomial", coll.ScatterBinomial, coll.Params{})
	return s
}

// Libraries returns both library profiles.
func Libraries() []*Library { return []*Library{OpenMPI(), IntelMPI()} }

// ByName returns the named library profile ("Open MPI" or "Intel MPI").
func ByName(name string) (*Library, error) {
	for _, l := range Libraries() {
		if l.Name == name {
			return l, nil
		}
	}
	return nil, fmt.Errorf("mpilib: unknown library %q", name)
}

// Resolve maps a machine, library and collective name to the machine
// profile and the library's portfolio for that collective. It is the one
// place the pipeline turns these names into something it can measure.
func Resolve(machName, libName, coll string) (machine.Machine, *CollectiveSet, error) {
	mach, err := machine.ByName(machName)
	if err != nil {
		return machine.Machine{}, nil, err
	}
	lib, err := ByName(libName)
	if err != nil {
		return machine.Machine{}, nil, err
	}
	set, err := lib.Collective(coll)
	if err != nil {
		return machine.Machine{}, nil, err
	}
	return mach, set, nil
}
