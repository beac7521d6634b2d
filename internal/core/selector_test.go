package core

import (
	"math"
	"strings"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/mpilib"
)

// testDataset generates a small but non-trivial d2-style dataset (Open MPI
// allreduce on Hydra) shared across the package tests.
func testDataset(t *testing.T) (*dataset.Dataset, *mpilib.CollectiveSet) {
	t.Helper()
	spec, err := dataset.SpecByName("d2", dataset.ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes = []int{2, 3, 4, 5, 6}
	spec.PPNs = []int{1, 4}
	spec.Msizes = []int64{16, 1024, 16384, 262144, 1048576}
	ds, err := dataset.Generate(spec, bench.Options{MaxReps: 3, SyncJitter: 1e-7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, set, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return ds, set
}

func TestFeatures(t *testing.T) {
	f := Features(4, 8, 1023)
	if len(f) != 4 {
		t.Fatalf("feature vector length %d", len(f))
	}
	if f[1] != 4 || f[2] != 8 {
		t.Errorf("raw features wrong: %v", f)
	}
	if f[3] != 5 { // log2(32)
		t.Errorf("log2(p) = %v", f[3])
	}
	if f[0] != math.Log2(1024) {
		t.Errorf("log msize = %v", f[0])
	}
}

func TestTrainAndSelect(t *testing.T) {
	ds, set := testDataset(t)
	for _, learner := range []string{"knn", "gam", "xgboost"} {
		sel, err := Train(ds, set, learner, []int{2, 4, 6})
		if err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		labels := map[int]string{}
		for _, cfg := range set.Selectable() {
			labels[cfg.ID] = cfg.Label()
		}
		// Selection on held-out node counts must return valid configs,
		// labeled as the portfolio labels them, and positive predictions.
		for _, n := range []int{3, 5} {
			for _, m := range []int64{16, 16384, 1048576} {
				pred := sel.Select(n, 4, m)
				if pred.ConfigID < 1 || pred.ConfigID > len(set.Configs) {
					t.Fatalf("%s: invalid config %d", learner, pred.ConfigID)
				}
				if !(pred.Predicted > 0) {
					t.Fatalf("%s: non-positive prediction %v", learner, pred.Predicted)
				}
				for _, p := range append(sel.PredictAll(n, 4, m), pred) {
					if p.Label != labels[p.ConfigID] {
						t.Fatalf("%s: config %d labeled %q, want %q", learner, p.ConfigID, p.Label, labels[p.ConfigID])
					}
				}
			}
		}
	}
}

func TestSelectionBeatsWorstAndApproachesBest(t *testing.T) {
	// The headline property: on held-out instances, the measured time of
	// the selected configuration should be far closer to the best than to
	// the worst configuration.
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	var ratioSum float64
	var count int
	for _, n := range []int{3, 5} {
		for _, ppn := range []int{1, 4} {
			for _, m := range []int64{16, 1024, 16384, 262144, 1048576} {
				pred := sel.Select(n, ppn, m)
				predT, ok := ds.Lookup(pred.ConfigID, n, ppn, m)
				if !ok {
					t.Fatalf("no measurement for selected config %d", pred.ConfigID)
				}
				_, bestT, ok := ds.Best(set, n, ppn, m)
				if !ok {
					t.Fatal("no best")
				}
				ratioSum += predT / bestT
				count++
			}
		}
	}
	avg := ratioSum / float64(count)
	if avg > 1.6 {
		t.Errorf("selected configs average %.2fx the best; selection is not learning", avg)
	}
}

func TestPredictAllSortedAndComplete(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "knn", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	preds := sel.PredictAll(3, 4, 16384)
	if len(preds) != len(set.Selectable()) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(set.Selectable()))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Predicted < preds[i-1].Predicted {
			t.Fatal("PredictAll not sorted")
		}
	}
	if preds[0].ConfigID != sel.Select(3, 4, 16384).ConfigID {
		t.Error("Select disagrees with PredictAll[0]")
	}
}

func TestTrainErrorsOnMissingNodes(t *testing.T) {
	ds, set := testDataset(t)
	if _, err := Train(ds, set, "knn", []int{99}); err == nil {
		t.Error("expected error for training nodes absent from the dataset")
	}
	if _, err := Train(ds, set, "knn", nil); err == nil {
		t.Error("expected error for empty training nodes")
	}
	if _, err := Train(ds, set, "nope", []int{2}); err == nil {
		t.Error("expected error for unknown learner")
	}
}

func TestTuningFile(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "xgboost", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	tf := sel.TuningFile(5, 4, []int64{1048576, 16, 16384})
	if !strings.Contains(tf, "collective allreduce") {
		t.Errorf("missing collective header:\n%s", tf)
	}
	if !strings.Contains(tf, "comm-size 20") {
		t.Errorf("missing comm size:\n%s", tf)
	}
	// Rules must be emitted in ascending message-size order.
	i16 := strings.Index(tf, "msg-size 16 ")
	i16k := strings.Index(tf, "msg-size 16384 ")
	i1m := strings.Index(tf, "msg-size 1048576 ")
	if !(i16 >= 0 && i16 < i16k && i16k < i1m) {
		t.Errorf("rules out of order:\n%s", tf)
	}
}
