package mpilib

import (
	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
)

// Segment-size grid used throughout the Open MPI profile; the values match
// the paper ("we tested MPI_Bcast in d1 with the following segment sizes in
// KB: 1, 4, 16, 64, and 128").
var ompiSegs = []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10}

// OpenMPI returns the Open MPI 4.0.2-like library profile.
func OpenMPI() *Library {
	return &Library{
		Name:    "Open MPI",
		Version: "4.0.2",
		collectives: map[string]*CollectiveSet{
			Bcast:     ompiBcast(),
			Allreduce: ompiAllreduce(),
			Alltoall:  ompiAlltoall(),
			Reduce:    ompiReduce(),
			Allgather: ompiAllgather(),
			Gather:    ompiGather(),
			Scatter:   ompiScatter(),
		},
	}
}

// ompiBcast mirrors Open MPI 4.0.2's nine broadcast algorithms:
// 1 basic_linear, 2 chain, 3 pipeline, 4 split_binary_tree, 5 binary_tree,
// 6 binomial, 7 knomial, 8 scatter_allgather (buggy in 4.0.2 per the paper,
// hence excluded from tuning), 9 scatter_allgather_ring.
func ompiBcast() *CollectiveSet {
	s := &CollectiveSet{Coll: Bcast}
	s.add(1, "basic_linear", coll.BcastLinear, coll.Params{})
	for _, seg := range ompiSegs {
		for _, ch := range []int{2, 4, 8, 16} {
			s.add(2, "chain", coll.BcastChain, coll.Params{Seg: seg, Fanout: ch})
		}
	}
	for _, seg := range ompiSegs {
		s.add(3, "pipeline", coll.BcastPipeline, coll.Params{Seg: seg})
	}
	for _, seg := range ompiSegs {
		s.add(4, "split_binary_tree", coll.BcastSplitBinary, coll.Params{Seg: seg})
	}
	for _, seg := range ompiSegs {
		s.add(5, "binary_tree", coll.BcastBinary, coll.Params{Seg: seg})
	}
	s.add(6, "binomial", coll.BcastBinomial, coll.Params{})
	for _, seg := range ompiSegs {
		s.add(6, "binomial", coll.BcastBinomial, coll.Params{Seg: seg})
	}
	for _, radix := range []int{3, 4, 8} {
		s.add(7, "knomial", coll.BcastKnomial, coll.Params{Fanout: radix})
	}
	s.add(8, "scatter_allgather", coll.BcastScatterAllgather, coll.Params{})
	s.Configs[len(s.Configs)-1].Excluded = true // buggy in 4.0.2: benchmarked, never selected
	s.add(9, "scatter_allgather_ring", coll.BcastScatterRingAllgather, coll.Params{})

	// Fixed decision rules in the spirit of coll_tuned_decision_fixed.c:
	// machine-independent thresholds on communicator and message size.
	// They pick sane algorithm families but with parameters frozen long
	// ago on a different machine, so a per-machine tuner retains a clear
	// margin — the situation the paper quantifies.
	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		p := topo.P()
		switch {
		case p < 4:
			if m < 32768 {
				return s.findConfig(1, coll.Params{})
			}
			return s.findConfig(3, coll.Params{Seg: 64 << 10})
		case m < 2048:
			return s.findConfig(6, coll.Params{})
		case m < 16384:
			return s.findConfig(6, coll.Params{Seg: 1 << 10})
		case m < 65536:
			return s.findConfig(4, coll.Params{Seg: 4 << 10})
		case m < 524288:
			return s.findConfig(5, coll.Params{Seg: 16 << 10})
		case p >= 256:
			return s.findConfig(6, coll.Params{Seg: 64 << 10})
		default:
			return s.findConfig(2, coll.Params{Seg: 64 << 10, Fanout: 8})
		}
	})
	return s
}

// ompiAllreduce mirrors Open MPI's allreduce portfolio: 1 basic_linear,
// 2 nonoverlapping (reduce+bcast), 3 recursive_doubling, 4 ring,
// 5 segmented_ring, 6 rabenseifner, 7 allgather_reduce.
func ompiAllreduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Allreduce}
	s.add(1, "basic_linear", coll.AllreduceLinear, coll.Params{})
	s.add(2, "nonoverlapping", coll.AllreduceNonoverlapping, coll.Params{})
	s.add(3, "recursive_doubling", coll.AllreduceRecursiveDoubling, coll.Params{})
	s.add(4, "ring", coll.AllreduceRing, coll.Params{})
	for _, seg := range ompiSegs {
		s.add(5, "segmented_ring", coll.AllreduceSegmentedRing, coll.Params{Seg: seg})
	}
	s.add(6, "rabenseifner", coll.AllreduceRabenseifner, coll.Params{})
	s.add(7, "allgather_reduce", coll.AllreduceAllgatherReduce, coll.Params{})

	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		p := topo.P()
		switch {
		case p < 4:
			if m < 65536 {
				return s.findConfig(3, coll.Params{})
			}
			return s.findConfig(4, coll.Params{})
		case m < 32768:
			return s.findConfig(3, coll.Params{})
		case m < 524288:
			return s.findConfig(4, coll.Params{})
		default:
			return s.findConfig(5, coll.Params{Seg: 128 << 10})
		}
	})
	return s
}

// ompiReduce: 1 basic_linear, 2 binomial, 3 knomial, 4 pipeline (segmented
// binomial).
func ompiReduce() *CollectiveSet {
	s := &CollectiveSet{Coll: Reduce}
	s.add(1, "basic_linear", coll.ReduceLinear, coll.Params{})
	s.add(2, "binomial", coll.ReduceBinomial, coll.Params{})
	for _, radix := range []int{3, 4, 8} {
		s.add(3, "knomial", coll.ReduceKnomial, coll.Params{Fanout: radix})
	}
	for _, seg := range ompiSegs {
		s.add(4, "pipeline", coll.ReducePipelined, coll.Params{Seg: seg})
	}
	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		switch {
		case topo.P() < 4 && m < 65536:
			return s.findConfig(1, coll.Params{})
		case m < 16384:
			return s.findConfig(2, coll.Params{})
		default:
			return s.findConfig(4, coll.Params{Seg: 64 << 10})
		}
	})
	return s
}

// ompiAllgather: 1 basic_linear, 2 bruck, 3 recursive_doubling, 4 ring,
// 5 neighbor exchange.
func ompiAllgather() *CollectiveSet {
	s := &CollectiveSet{Coll: Allgather}
	s.add(1, "basic_linear", coll.AllgatherLinear, coll.Params{})
	s.add(2, "bruck", coll.AllgatherBruck, coll.Params{})
	s.add(3, "recursive_doubling", coll.AllgatherRecursiveDoubling, coll.Params{})
	s.add(4, "ring", coll.AllgatherRing, coll.Params{})
	s.add(5, "neighbor", coll.AllgatherNeighborExchange, coll.Params{})
	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		p := topo.P()
		switch {
		case m < 1024 && p >= 12:
			return s.findConfig(2, coll.Params{})
		case m < 65536:
			return s.findConfig(3, coll.Params{})
		default:
			return s.findConfig(4, coll.Params{})
		}
	})
	return s
}

// ompiGather: 1 basic_linear, 2 binomial.
func ompiGather() *CollectiveSet {
	s := &CollectiveSet{Coll: Gather}
	s.add(1, "basic_linear", coll.GatherLinear, coll.Params{})
	s.add(2, "binomial", coll.GatherBinomial, coll.Params{})
	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		if topo.P() < 8 || m >= 65536 {
			return 1
		}
		return 2
	})
	return s
}

// ompiScatter: 1 basic_linear, 2 binomial.
func ompiScatter() *CollectiveSet {
	s := &CollectiveSet{Coll: Scatter}
	s.add(1, "basic_linear", coll.ScatterLinear, coll.Params{})
	s.add(2, "binomial", coll.ScatterBinomial, coll.Params{})
	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		if topo.P() < 8 || m >= 65536 {
			return 1
		}
		return 2
	})
	return s
}

// ompiAlltoall: 1 basic_linear, 2 pairwise, 3 bruck, 4 linear_sync
// (windowed). Not used by the paper's Open MPI datasets but provided for
// completeness (the tooling accepts any library/collective combination).
func ompiAlltoall() *CollectiveSet {
	s := &CollectiveSet{Coll: Alltoall}
	s.add(1, "basic_linear", coll.AlltoallLinear, coll.Params{})
	s.add(2, "pairwise", coll.AlltoallPairwise, coll.Params{})
	s.add(3, "bruck", coll.AlltoallBruck, coll.Params{})
	for _, w := range []int{4, 8, 16, 32} {
		s.add(4, "linear_sync", coll.AlltoallSpread, coll.Params{Fanout: w})
	}

	s.decide = fixedRule(func(topo netmodel.Topology, m int64) int {
		p := topo.P()
		switch {
		case m < 256 && p >= 12:
			return s.findConfig(3, coll.Params{})
		case m < 8192:
			return s.findConfig(1, coll.Params{})
		default:
			return s.findConfig(2, coll.Params{})
		}
	})
	return s
}

// fixedRule lifts a per-instance decision rule to the batch-shaped decide
// hook.
func fixedRule(rule func(topo netmodel.Topology, m int64) int) func(machine.Machine, []Query) []int {
	return func(_ machine.Machine, qs []Query) []int {
		ids := make([]int, len(qs))
		for i, q := range qs {
			ids[i] = rule(q.Topo, q.M)
		}
		return ids
	}
}
