package mpilib

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// IntelMPI returns the Intel MPI 2019-like library profile. Its default
// decision logic consults a tuning table computed by exhaustive search,
// pruned by a makespan bound, over the portfolio on the machine's reference
// system (the simulated stand-in for Intel's factory mpitune tables) — which
// is why the paper finds the Intel defaults already near-optimal.
func IntelMPI() *Library {
	return &Library{
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
}

// tunedDecide returns a decision function that picks the configuration with
// the smallest noise-free simulated runtime on the machine's reference
// network (memoized by the caller via CollectiveSet.Decide).
func tunedDecide(s *CollectiveSet) func(machine.Machine, netmodel.Topology, int64) int {
	return func(mach machine.Machine, topo netmodel.Topology, m int64) int {
		return fastestConfig(s.Selectable(), mach.RefNet, topo, m)
	}
}

// fastestConfig returns the id of the configuration with the smallest
// noise-free makespan, the lowest id on ties, and 1 when every schedule
// fails. The configurations are simulated by GOMAXPROCS workers, each with
// its own engine and recycled program, and every run is bounded by the best
// makespan completed so far. A run is cut only when its makespan is strictly
// greater than a completed one, so every configuration attaining the minimum
// completes and the argmin below, in id order with strict <, is the plain
// exhaustive one whatever the scheduling.
func fastestConfig(cfgs []Config, prm netmodel.Params, topo netmodel.Topology, m int64) int {
	var (
		mu    sync.Mutex
		next  int
		bound = math.Inf(1)
		times = make([]float64, len(cfgs))
		ok    = make([]bool, len(cfgs))
		wg    sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(cfgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			var prog *sim.Program
			for {
				mu.Lock()
				i, b := next, bound
				next++
				mu.Unlock()
				if i >= len(cfgs) {
					return
				}
				prog = BuildProgramInto(prog, cfgs[i], topo, m, false)
				res, err := eng.RunWithin(prog, netmodel.New(prm, topo, 1, false), nil, b)
				if err != nil {
					continue // cut, or a failing schedule: neither can be the default
				}
				mu.Lock()
				times[i], ok[i] = res.Time, true
				bound = math.Min(bound, res.Time)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	bestID, bestT := 0, 0.0
	for i, c := range cfgs {
		if ok[i] && (bestID == 0 || times[i] < bestT) {
			bestID, bestT = c.ID, times[i]
		}
	}
	if bestID == 0 {
		bestID = 1
	}
	return bestID
}

// intelBcast provides 12 broadcast algorithms (Intel MPI 2019 exposes its
// bcast portfolio through I_MPI_ADJUST_BCAST=1..14; we model 12 of them):
// 1 linear, 2 binomial, 3 knomial(4), 4 knomial(8), 5 pipeline, 6 chain,
// 7 split_binary, 8 binary, 9 double_tree, 10 scatter_allgather,
// 11 scatter_ring_allgather, 12 topology_aware (two-level).
func intelBcast() *CollectiveSet {
	s := &CollectiveSet{Coll: Bcast, NumAlgs: 12}
	add := func(algID int, name string, g coll.Generator, prm coll.Params) {
		s.Configs = append(s.Configs, Config{
			ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: g,
		})
	}
	add(1, "linear", coll.BcastLinear, coll.Params{})
	add(2, "binomial", coll.BcastBinomial, coll.Params{})
	add(3, "knomial", coll.BcastKnomial, coll.Params{Fanout: 4})
	add(4, "knomial", coll.BcastKnomial, coll.Params{Fanout: 8})
	for _, seg := range []int64{4 << 10, 16 << 10, 64 << 10} {
		add(5, "pipeline", coll.BcastPipeline, coll.Params{Seg: seg})
	}
	for _, seg := range []int64{4 << 10, 16 << 10, 64 << 10} {
		add(6, "chain", coll.BcastChain, coll.Params{Seg: seg, Fanout: 4})
	}
	add(7, "split_binary", coll.BcastSplitBinary, coll.Params{Seg: 8 << 10})
	add(8, "binary", coll.BcastBinary, coll.Params{Seg: 8 << 10})
	add(9, "double_tree", coll.BcastDoubleTree, coll.Params{Seg: 16 << 10})
	add(10, "scatter_allgather", coll.BcastScatterAllgather, coll.Params{})
	add(11, "scatter_ring_allgather", coll.BcastScatterRingAllgather, coll.Params{})
	for _, radix := range []int{2, 4} {
		add(12, "topology_aware", coll.BcastHierarchical, coll.Params{Seg: 16 << 10, Fanout: radix})
	}
	s.decide = tunedDecide(s)
	return s
}

// intelAllreduce provides 16 allreduce algorithms (I_MPI_ADJUST_ALLREDUCE
// exposes a comparable portfolio): exchange-based, ring-based, tree-based
// and SHM/topology-aware two-level schemes.
func intelAllreduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Allreduce, NumAlgs: 16}
	add := func(algID int, name string, g coll.Generator, prm coll.Params) {
		s.Configs = append(s.Configs, Config{
			ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: g,
		})
	}
	add(1, "recursive_doubling", coll.AllreduceRecursiveDoubling, coll.Params{})
	add(2, "rabenseifner", coll.AllreduceRabenseifner, coll.Params{})
	add(3, "reduce_bcast", coll.AllreduceNonoverlapping, coll.Params{})
	add(4, "ring", coll.AllreduceRing, coll.Params{})
	add(5, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 1 << 10})
	add(6, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 4 << 10})
	add(7, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 16 << 10})
	add(8, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 64 << 10})
	add(9, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: 128 << 10})
	add(10, "knomial", coll.AllreduceKnomial, coll.Params{Fanout: 4})
	add(11, "knomial", coll.AllreduceKnomial, coll.Params{Fanout: 8})
	add(12, "allgather_reduce", coll.AllreduceAllgatherReduce, coll.Params{})
	add(13, "linear", coll.AllreduceLinear, coll.Params{})
	add(14, "shm_rdoubling", coll.AllreduceHierarchical, coll.Params{})
	add(15, "shm_ring", coll.AllreduceHierarchical, coll.Params{Fanout: 2})
	add(16, "shm_rabenseifner", coll.AllreduceHierarchical, coll.Params{Fanout: 3})
	s.decide = tunedDecide(s)
	return s
}

// intelAlltoall provides 5 alltoall algorithms: 1 bruck, 2 isend_irecv
// (linear), 3 pairwise, 4 plum (windowed spread), 5 topology-aware
// node aggregation.
func intelAlltoall() *CollectiveSet {
	s := &CollectiveSet{Coll: Alltoall, NumAlgs: 5}
	add := func(algID int, name string, g coll.Generator, prm coll.Params) {
		s.Configs = append(s.Configs, Config{
			ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: g,
		})
	}
	add(1, "bruck", coll.AlltoallBruck, coll.Params{})
	add(2, "isend_irecv", coll.AlltoallLinear, coll.Params{})
	add(3, "pairwise", coll.AlltoallPairwise, coll.Params{})
	for _, w := range []int{4, 8, 16, 32} {
		add(4, "plum", coll.AlltoallSpread, coll.Params{Fanout: w})
	}
	add(5, "topology_aware", coll.AlltoallHierarchical, coll.Params{})
	s.decide = tunedDecide(s)
	return s
}

// intelReduce: 1 shumilin (linear), 2 binomial, 3 knomial(4), 4 knomial(8),
// 5 pipelined binomial.
func intelReduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Reduce, NumAlgs: 5}
	add := func(algID int, name string, g coll.Generator, prm coll.Params) {
		s.Configs = append(s.Configs, Config{
			ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: g,
		})
	}
	add(1, "shumilin", coll.ReduceLinear, coll.Params{})
	add(2, "binomial", coll.ReduceBinomial, coll.Params{})
	add(3, "knomial", coll.ReduceKnomial, coll.Params{Fanout: 4})
	add(4, "knomial", coll.ReduceKnomial, coll.Params{Fanout: 8})
	for _, seg := range []int64{16 << 10, 64 << 10} {
		add(5, "pipelined", coll.ReducePipelined, coll.Params{Seg: seg})
	}
	s.decide = tunedDecide(s)
	return s
}

// intelAllgather: 1 recursive_doubling, 2 bruck, 3 ring, 4 topology-neutral
// linear, 5 neighbor exchange.
func intelAllgather() *CollectiveSet {
	s := &CollectiveSet{Coll: Allgather, NumAlgs: 5}
	add := func(algID int, name string, g coll.Generator, prm coll.Params) {
		s.Configs = append(s.Configs, Config{
			ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: g,
		})
	}
	add(1, "recursive_doubling", coll.AllgatherRecursiveDoubling, coll.Params{})
	add(2, "bruck", coll.AllgatherBruck, coll.Params{})
	add(3, "ring", coll.AllgatherRing, coll.Params{})
	add(4, "linear", coll.AllgatherLinear, coll.Params{})
	add(5, "neighbor", coll.AllgatherNeighborExchange, coll.Params{})
	s.decide = tunedDecide(s)
	return s
}

// intelGather: 1 linear, 2 binomial.
func intelGather() *CollectiveSet {
	s := &CollectiveSet{Coll: Gather, NumAlgs: 2}
	s.Configs = []Config{
		{ID: 1, AlgID: 1, Name: "linear", Gen: coll.GatherLinear},
		{ID: 2, AlgID: 2, Name: "binomial", Gen: coll.GatherBinomial},
	}
	s.decide = tunedDecide(s)
	return s
}

// intelScatter: 1 linear, 2 binomial.
func intelScatter() *CollectiveSet {
	s := &CollectiveSet{Coll: Scatter, NumAlgs: 2}
	s.Configs = []Config{
		{ID: 1, AlgID: 1, Name: "linear", Gen: coll.ScatterLinear},
		{ID: 2, AlgID: 2, Name: "binomial", Gen: coll.ScatterBinomial},
	}
	s.decide = tunedDecide(s)
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
