package eval

import (
	"math"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
)

func evalDataset(t *testing.T, name string) (*dataset.Dataset, machine.Machine, *mpilib.CollectiveSet) {
	t.Helper()
	spec, err := dataset.SpecByName(name, dataset.ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes = []int{2, 3, 4, 5, 6}
	spec.PPNs = []int{1, 4}
	spec.Msizes = []int64{16, 4096, 65536, 1048576}
	ds, err := dataset.Generate(spec, bench.Options{MaxReps: 2, SyncJitter: 1e-7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return ds, mach, set
}

func TestSplitsTableIII(t *testing.T) {
	if len(Splits()) != 3 {
		t.Fatal("expected 3 machines in Table III")
	}
	h, err := SplitFor("Hydra")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Full) != 7 || len(h.Small) != 3 || len(h.Test) != 5 {
		t.Errorf("Hydra split sizes wrong: %+v", h)
	}
	// Train and test sets must be disjoint.
	for _, s := range Splits() {
		test := map[int]bool{}
		for _, n := range s.Test {
			test[n] = true
		}
		for _, n := range append(append([]int{}, s.Full...), s.Small...) {
			if test[n] {
				t.Errorf("%s: node %d in both train and test", s.Machine, n)
			}
		}
	}
	if _, err := SplitFor("nope"); err == nil {
		t.Error("expected error for unknown machine")
	}
	if _, err := h.TrainNodes("tiny"); err == nil {
		t.Error("expected error for unknown variant")
	}
}

func TestEvaluateOpenMPIBeatsDefaultOnAverage(t *testing.T) {
	// The paper's central claim, scaled down: on Open MPI datasets the
	// prediction should not lose to the fixed decision logic.
	ds, mach, set := evalDataset(t, "d1")
	ev, err := Evaluate(ds, mach, set, "gam", []int{2, 4, 6}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 2*2*4 {
		t.Fatalf("expected 16 test instances, got %d", len(ev.Results))
	}
	if sp := ev.MeanSpeedup(); sp < 0.95 {
		t.Errorf("mean speedup %v; prediction should at least match the default", sp)
	}
	if vb := ev.MeanVsBest(); vb < 1.0 {
		t.Errorf("normalized-vs-best %v < 1 is impossible", vb)
	}
	for _, r := range ev.Results {
		if r.BestT > r.PredT || r.BestT > r.DefaultT {
			t.Fatalf("best must lower-bound all strategies: %+v", r)
		}
		if r.Speedup() <= 0 {
			t.Fatalf("bad speedup: %+v", r)
		}
	}
}

// GeoMeanSpeedup is the geometric-mean variant (robust to outliers).
func (e *Evaluation) GeoMeanSpeedup() float64 {
	s := 0.0
	for _, r := range e.Results {
		s += math.Log(r.Speedup())
	}
	return math.Exp(s / float64(len(e.Results)))
}

func TestEvaluateGeoVsArithmetic(t *testing.T) {
	ds, mach, set := evalDataset(t, "d2")
	ev, err := Evaluate(ds, mach, set, "knn", []int{2, 4, 6}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ev.GeoMeanSpeedup() > ev.MeanSpeedup()*1.0001 {
		t.Errorf("geometric mean (%v) cannot exceed arithmetic mean (%v)",
			ev.GeoMeanSpeedup(), ev.MeanSpeedup())
	}
}

func TestEvaluateErrors(t *testing.T) {
	ds, mach, set := evalDataset(t, "d2")
	if _, err := Evaluate(ds, mach, set, "gam", []int{2, 4}, []int{77}); err == nil {
		t.Error("expected error for test nodes absent from the dataset")
	}
}

func TestNormalizedRuntimeSeries(t *testing.T) {
	ds, mach, set := evalDataset(t, "d1")
	sel, err := core.Train(ds, set, "xgboost", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NormalizedRuntime(ds, mach, set, sel, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Msizes) != 4 {
		t.Fatalf("series length %d", len(s.Msizes))
	}
	for i := range s.Msizes {
		if s.Best[i] != 1.0 {
			t.Error("best series must be 1.0")
		}
		if s.Default[i] < 1.0 || s.Pred[i] < 1.0 {
			t.Errorf("normalized values below 1: %+v", s)
		}
		if i > 0 && s.Msizes[i] <= s.Msizes[i-1] {
			t.Error("msizes not ascending")
		}
	}
}

func TestAlgorithmMap(t *testing.T) {
	ds, _, set := evalDataset(t, "d1")
	var sels []*core.Selector
	for _, learner := range []string{"knn", "gam"} {
		sel, err := core.Train(ds, set, learner, []int{2, 4, 6})
		if err != nil {
			t.Fatal(err)
		}
		sels = append(sels, sel)
	}
	choices := AlgorithmMap(ds, sels, []int{3, 5})
	// 2 learners x 2 test nodes x 2 ppn x 4 msizes.
	if len(choices) != 2*2*2*4 {
		t.Fatalf("got %d choices", len(choices))
	}
	for _, c := range choices {
		if c.AlgID < 1 || c.AlgID > 9 {
			t.Fatalf("invalid alg id %d", c.AlgID)
		}
		if c.AlgID == 8 {
			t.Fatalf("excluded algorithm 8 must never be selected (paper: buggy)")
		}
	}
}

func TestChainSpeedup(t *testing.T) {
	ds, _, set := evalDataset(t, "d1")
	rows, err := ChainSpeedup(ds, set, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 20 chain configs x 4 message sizes.
	if len(rows) != 80 {
		t.Fatalf("got %d rows", len(rows))
	}
	anyFast := false
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup %+v", r)
		}
		if r.Msize == 1048576 && r.Speedup > 1 {
			anyFast = true
		}
	}
	if !anyFast {
		t.Error("at large messages some chain configuration should beat linear (Fig 2 shape)")
	}
	// Alltoall dataset must be rejected.
	dsA, _, setA := evalDataset(t, "d6")
	if _, err := ChainSpeedup(dsA, setA, 4, 4); err == nil {
		t.Error("expected error for non-bcast dataset")
	}
}
