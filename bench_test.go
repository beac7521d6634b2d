// Package mpicollpred_test provides one testing.B benchmark per table and
// figure of the paper, exercising the exact code path that regenerates the
// artifact (cmd/experiments runs the full-size versions; the benchmarks run
// scaled-down grids so `go test -bench=.` finishes in minutes).
package mpicollpred_test

import (
	"sync"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
)

// microDataset builds a small measured dataset once per (name) and shares
// it across benchmarks.
type micro struct {
	ds   *dataset.Dataset
	mach machine.Machine
	set  *mpilib.CollectiveSet
}

var (
	microCache = map[string]*micro{}
	microMu    sync.Mutex
)

func microFor(b *testing.B, name string) *micro {
	b.Helper()
	microMu.Lock()
	defer microMu.Unlock()
	if m, ok := microCache[name]; ok {
		return m
	}
	spec, err := dataset.SpecByName(name, dataset.ScaleSmoke)
	if err != nil {
		b.Fatal(err)
	}
	spec.Nodes = []int{2, 3, 4, 5, 6}
	spec.PPNs = []int{1, 4}
	spec.Msizes = []int64{16, 1024, 16384, 262144, 1048576}
	if spec.Coll == mpilib.Alltoall {
		spec.Msizes = []int64{16, 1024, 16384}
	}
	ds, err := dataset.Generate(spec, bench.Options{MaxReps: 2, SyncJitter: 1e-7}, nil)
	if err != nil {
		b.Fatal(err)
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	m := &micro{ds: ds, mach: mach, set: set}
	microCache[name] = m
	return m
}

// BenchmarkTable1Machines regenerates the hardware-overview inputs: machine
// profiles and topology validation (paper Table I).
func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range machine.All() {
			if _, err := m.Topo(m.MaxN, m.MaxPPN); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Datasets measures the benchmark step itself: generating a
// (micro) dataset grid, the operation behind Table II's sample counts.
func BenchmarkTable2Datasets(b *testing.B) {
	spec, err := dataset.SpecByName("d2", dataset.ScaleSmoke)
	if err != nil {
		b.Fatal(err)
	}
	spec.Nodes = []int{2, 3}
	spec.PPNs = []int{2}
	spec.Msizes = []int64{1024, 65536}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(spec, bench.Options{MaxReps: 1, SyncJitter: 1e-7}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Splits regenerates the train/test split table.
func BenchmarkTable3Splits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range eval.Splits() {
			if _, err := s.TrainNodes("full"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// table4 benchmarks one Table IV cell: train a selector and compute the
// mean speedup on held-out nodes.
func table4(b *testing.B, trainNodes []int) {
	m := microFor(b, "d1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := eval.Evaluate(m.ds, m.mach, m.set, "gam", trainNodes, []int{3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if ev.MeanSpeedup() <= 0 {
			b.Fatal("bad speedup")
		}
	}
}

// BenchmarkTable4aLargeTraining regenerates a Table IVa cell (full split).
func BenchmarkTable4aLargeTraining(b *testing.B) { table4(b, []int{2, 4, 6}) }

// BenchmarkTable4bSmallTraining regenerates a Table IVb cell (small split).
func BenchmarkTable4bSmallTraining(b *testing.B) { table4(b, []int{2, 6}) }

// BenchmarkFig2ChainSweep regenerates the chain-vs-linear speedup matrix.
func BenchmarkFig2ChainSweep(b *testing.B) {
	m := microFor(b, "d1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.ChainSpeedup(m.ds, m.set, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// strategySeries benchmarks a Fig 4/6/7/8-style panel: train + normalized
// runtime series on one allocation.
func strategySeries(b *testing.B, name string) {
	m := microFor(b, name)
	sel, err := core.Train(m.ds, m.set, "gam", []int{2, 4, 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.NormalizedRuntime(m.ds, m.mach, m.set, sel, 5, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4BcastHydra regenerates a Fig. 4 panel (Bcast, Open MPI, Hydra).
func BenchmarkFig4BcastHydra(b *testing.B) { strategySeries(b, "d1") }

// BenchmarkFig6AllreduceIntel regenerates a Fig. 6 panel (Allreduce, Intel MPI).
func BenchmarkFig6AllreduceIntel(b *testing.B) { strategySeries(b, "d5") }

// BenchmarkFig7AllreduceJupiter regenerates a Fig. 7 panel (Allreduce, Jupiter).
func BenchmarkFig7AllreduceJupiter(b *testing.B) { strategySeries(b, "d4") }

// BenchmarkFig8BcastSuperMUC regenerates a Fig. 8 panel (Bcast, SuperMUC-NG).
func BenchmarkFig8BcastSuperMUC(b *testing.B) { strategySeries(b, "d8") }

// BenchmarkFig5AlgorithmMap regenerates the predicted-algorithm map for the
// three learners.
func BenchmarkFig5AlgorithmMap(b *testing.B) {
	m := microFor(b, "d1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sels []*core.Selector
		for _, learner := range []string{"knn", "gam", "xgboost"} {
			sel, err := core.Train(m.ds, m.set, learner, []int{2, 4, 6})
			if err != nil {
				b.Fatal(err)
			}
			sels = append(sels, sel)
		}
		if choices := eval.AlgorithmMap(m.ds, sels, []int{3, 5}); len(choices) == 0 {
			b.Fatal("no choices")
		}
	}
}

// BenchmarkBudgetMeasurement regenerates the §V budget argument's primitive:
// one time-budgeted ReproMPI-style measurement.
func BenchmarkBudgetMeasurement(b *testing.B) {
	m := microFor(b, "d1")
	cfg, err := m.set.Config(1)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := m.mach.Topo(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	runner := bench.NewRunner(bench.DefaultOptions(m.mach.Name))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meas, err := runner.Measure(cfg, m.mach.Net, topo, 4096, uint64(i), 10)
		if err != nil {
			b.Fatal(err)
		}
		if meas.Median() <= 0 {
			b.Fatal("bad measurement")
		}
	}
}
