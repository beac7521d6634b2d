package mpilib_test

import (
	"testing"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
)

// d7TestQueries returns the 50 d7 test instances of a table4_intel round:
// every Table III test node count of Hydra with every mid-scale message
// size, the ppn rotating across both (the benchmark module's testSubset).
func d7TestQueries(b *testing.B) (machine.Machine, []mpilib.Query) {
	spec, err := dataset.SpecByName("d7", dataset.ScaleMid)
	if err != nil {
		b.Fatal(err)
	}
	split, err := eval.SplitFor(spec.Machine)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := machine.ByName(spec.Machine)
	if err != nil {
		b.Fatal(err)
	}
	var qs []mpilib.Query
	for i, n := range split.Test {
		for j, m := range spec.Msizes {
			qs = append(qs, mpilib.Query{Topo: netmodel.Topology{Nodes: n, PPN: spec.PPNs[(i+j)%len(spec.PPNs)]}, M: m})
		}
	}
	return mach, qs
}

// BenchmarkDecideD7 times the Intel default decisions of a table4_intel
// round: each iteration decides the 50 d7 test instances with one DecideAll
// on a fresh broadcast set, so nothing is memoized across iterations. It
// reports decisions per second.
func BenchmarkDecideD7(b *testing.B) {
	mach, qs := d7TestQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := mpilib.IntelMPI().Collective(mpilib.Bcast)
		if err != nil {
			b.Fatal(err)
		}
		set.DecideAll(mach, qs)
	}
	b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "decisions/s")
}
