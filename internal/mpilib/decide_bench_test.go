package mpilib_test

import (
	"testing"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
)

// testQueries returns the machine, the collective and the 50 test instances
// of a Table IV round on an Intel dataset at mid scale: every Table III test
// node count of its machine with every message size, the ppn rotating across
// the dataset's (the benchmark module's testSubset).
func testQueries(b *testing.B, name string) (machine.Machine, string, []mpilib.Query) {
	spec, err := dataset.SpecByName(name, dataset.ScaleMid)
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
	return mach, spec.Coll, qs
}

// benchmarkDecide times the Intel default decisions of one Table IV round
// on dataset name: each iteration decides its test instances with one
// DecideAll on a fresh collective set, so nothing is memoized across
// iterations. It reports decisions per second.
func benchmarkDecide(b *testing.B, name string) {
	mach, coll, qs := testQueries(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := mpilib.IntelMPI().Collective(coll)
		if err != nil {
			b.Fatal(err)
		}
		set.DecideAll(mach, qs)
	}
	b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkDecideD5 times the d5 (allreduce) round: 50 instances, whose
// ring and segmented-ring near-ties make it the most expensive decision.
func BenchmarkDecideD5(b *testing.B) { benchmarkDecide(b, "d5") }

// BenchmarkDecideD7 times the d7 (broadcast) round of a table4_intel
// workload iteration: 50 instances.
func BenchmarkDecideD7(b *testing.B) { benchmarkDecide(b, "d7") }
