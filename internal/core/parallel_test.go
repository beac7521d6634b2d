package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/par"
)

// trainAt is Train run at GOMAXPROCS=procs, the one fit worker count.
func trainAt(procs int, ds *dataset.Dataset, set *mpilib.CollectiveSet, learner string, trainNodes []int) (sel *Selector, err error) {
	par.AtProcs(procs, func() { sel, err = Train(ds, set, learner, trainNodes) })
	return sel, err
}

// TestTrainParallelBitIdentical is the acceptance test of the parallel
// fitting path: for every registered learner, a selector trained at
// GOMAXPROCS 4 must snapshot to exactly the bytes of one trained at 1
// (serial) and of one trained at the caller's GOMAXPROCS — model state,
// envelopes, and quarantine records are independent of worker count and
// scheduling.
func TestTrainParallelBitIdentical(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}

	for _, learner := range []string{"knn", "gam", "xgboost", "rf", "linear"} {
		a, err := trainAt(1, ds, set, learner, trainNodes)
		if err != nil {
			t.Fatalf("%s: serial: %v", learner, err)
		}
		b, err := trainAt(4, ds, set, learner, trainNodes)
		if err != nil {
			t.Fatalf("%s: parallel: %v", learner, err)
		}
		c, err := Train(ds, set, learner, trainNodes)
		if err != nil {
			t.Fatalf("%s: GOMAXPROCS workers: %v", learner, err)
		}
		if b.FitWall <= 0 {
			t.Errorf("%s: parallel FitWall = %v, accounting lost", learner, b.FitWall)
		}
		fp := FingerprintFor(ds, learner, trainNodes)
		sa, err := a.Snapshot(fp)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Snapshot(fp)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := c.Snapshot(fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Errorf("%s: 4-worker snapshot differs from serial snapshot", learner)
		}
		if !bytes.Equal(sa, sc) {
			t.Errorf("%s: GOMAXPROCS-worker snapshot differs from serial snapshot", learner)
		}
	}
}

// TestTrainParallelQuarantineDeterministic drives the quarantine-on-panic
// path through par.Run: a learner whose Fit always panics must
// leave the same quarantine records — and the same snapshot bytes — no
// matter how many workers fitted it.
func TestTrainParallelQuarantineDeterministic(t *testing.T) {
	useLearner(t, "panic-fit-par", func() ml.Regressor { return &panicLearner{fitPanics: true} })
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}

	a, err := trainAt(1, ds, set, "panic-fit-par", trainNodes)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	b, err := trainAt(4, ds, set, "panic-fit-par", trainNodes)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(b.Quarantined()) != len(set.Selectable()) {
		t.Fatalf("parallel run quarantined %d of %d configs", len(b.Quarantined()), len(set.Selectable()))
	}
	qa, qb := a.Quarantined(), b.Quarantined()
	for id, reason := range qa {
		if qb[id] != reason {
			t.Errorf("config %d: quarantine reason %q (parallel) vs %q (serial)", id, qb[id], reason)
		}
	}
	fp := FingerprintFor(ds, "panic-fit-par", trainNodes)
	sa, err := a.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Error("quarantine-heavy snapshots differ between serial and parallel training")
	}
}

// TestTrainMatrixSharedPool trains a learner matrix concurrently, each
// Train fanning out on its own 4 workers — the mpicolltune deployment
// shape — and checks every selector against its serially trained twin.
// Meaningful under -race: the concurrent fan-outs, their commits, and the
// obs accounting all run at once here.
func TestTrainMatrixSharedPool(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	learners := []string{"knn", "gam", "xgboost", "rf", "linear"}

	want := make(map[string][]byte, len(learners))
	for _, learner := range learners {
		sel, err := trainAt(1, ds, set, learner, trainNodes)
		if err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		snap, err := sel.Snapshot(FingerprintFor(ds, learner, trainNodes))
		if err != nil {
			t.Fatal(err)
		}
		want[learner] = snap
	}

	got := make(map[string][]byte, len(learners))
	var mu sync.Mutex
	var wg sync.WaitGroup
	par.AtProcs(4, func() {
		for _, learner := range learners {
			wg.Add(1)
			go func(learner string) {
				defer wg.Done()
				sel, err := Train(ds, set, learner, trainNodes)
				if err != nil {
					t.Errorf("%s: %v", learner, err)
					return
				}
				snap, err := sel.Snapshot(FingerprintFor(ds, learner, trainNodes))
				if err != nil {
					t.Errorf("%s: %v", learner, err)
					return
				}
				mu.Lock()
				got[learner] = snap
				mu.Unlock()
			}(learner)
		}
		wg.Wait()
	})
	for _, learner := range learners {
		if !bytes.Equal(got[learner], want[learner]) {
			t.Errorf("%s: matrix-trained snapshot differs from serial snapshot", learner)
		}
	}
}

var errFitRefused = errors.New("refusingLearner: fit refused")

// refusingLearner returns an error (not a panic) from Fit for training
// times no measurement produces: zero times fail after a delay, negative
// ones at once. Everything else fits trivially.
type refusingLearner struct{}

func (refusingLearner) Fit(x [][]float64, y []float64) error {
	switch {
	case y[0] == 0:
		time.Sleep(50 * time.Millisecond)
		return errFitRefused
	case y[0] < 0:
		return errFitRefused
	}
	return nil
}

func (refusingLearner) Predict(x []float64) float64 { return 1e-3 }

// TestFitErrorFirstInConfigOrder covers the non-panic fit-error path: an
// early configuration whose fit fails slowly and a late one whose fit fails
// at once. Train and Refit must both report the early one — the failure a
// serial loop stops at — with the same error at 1 and 4 workers, even
// though at 4 workers the late failure completes first.
func TestFitErrorFirstInConfigOrder(t *testing.T) {
	useLearner(t, "refuse-fit", func() ml.Regressor { return refusingLearner{} })
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	cfgs := set.Selectable()
	if len(cfgs) < 8 {
		t.Fatalf("test needs >= 8 configs, have %d", len(cfgs))
	}
	early, late := cfgs[1], cfgs[len(cfgs)-1]
	bad := refitPerturb(refitPerturb(ds, early.ID, 0), late.ID, -1)

	base, err := Train(ds, set, "refuse-fit", trainNodes)
	if err != nil {
		t.Fatalf("clean training failed: %v", err)
	}
	// Refit commits in ascending id order, Train in selectable order; the
	// two agree when the portfolio lists ids ascending.
	ids := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		ids[i] = cfg.ID
	}
	if !slices.IsSorted(ids) {
		t.Fatalf("selectable ids %v are not ascending", ids)
	}

	for _, c := range []struct {
		name string
		want string
		run  func() (*Selector, error)
	}{
		{"Train", fmt.Sprintf("core: fitting refuse-fit for config %d (%s): %v", early.ID, early.Label(), errFitRefused),
			func() (*Selector, error) { return Train(bad, set, "refuse-fit", trainNodes) }},
		{"Refit", fmt.Sprintf("core: refitting refuse-fit for config %d: %v", early.ID, errFitRefused),
			func() (*Selector, error) { return Refit(base, bad, set, ids) }},
	} {
		for _, workers := range []int{1, 4} {
			var (
				sel *Selector
				err error
			)
			par.AtProcs(workers, func() { sel, err = c.run() })
			if sel != nil || err == nil {
				t.Fatalf("%s at %d workers: got a selector, want an error", c.name, workers)
			}
			if !errors.Is(err, errFitRefused) {
				t.Errorf("%s at %d workers: %v does not wrap the learner's error", c.name, workers, err)
			}
			if err.Error() != c.want {
				t.Errorf("%s at %d workers:\n got %q\nwant %q", c.name, workers, err, c.want)
			}
		}
	}
}

// nanAt predicts NaN for every query — a live (non-quarantined) model gone
// numerically wrong, the case the PredictAll sort must survive.
type nanAt struct{}

func (nanAt) Fit(x [][]float64, y []float64) error { return nil }
func (nanAt) Predict(x []float64) float64          { return math.NaN() }

// constPred predicts a fixed time.
type constPred struct{ v float64 }

func (c constPred) Fit(x [][]float64, y []float64) error { return nil }
func (c constPred) Predict(x []float64) float64          { return c.v }

// TestPredictAllDeterministicWithTiesAndNaN is the regression test for the
// argmin-ordering bug: tied predictions and NaN-predicting live models used
// to make the response order depend on sort.Slice's pivot choices (a `<`
// comparator over NaN is not a strict weak order). Now NaN maps to +Inf
// before sorting and ties break on ConfigID, so the ranking is a function
// of the predictions alone.
func TestPredictAllDeterministicWithTiesAndNaN(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "knn", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sel.Configs()
	if len(cfgs) < 4 {
		t.Fatalf("test needs >= 4 configs, have %d", len(cfgs))
	}
	// Rig the models: one NaN predictor, everything else tied, except the
	// last config which wins outright; one config is quarantined on top.
	sel.mu.Lock()
	for i, cfg := range cfgs {
		switch i {
		case 0:
			sel.models[cfg.ID] = nanAt{}
		case len(cfgs) - 1:
			sel.models[cfg.ID] = constPred{v: 1e-6}
		default:
			sel.models[cfg.ID] = constPred{v: 2e-3}
		}
	}
	sel.mu.Unlock()
	quarantined := cfgs[1].ID
	sel.quarantine(quarantined, "predict", "induced for the ordering test")

	want := sel.PredictAll(3, 4, 1024)
	for run := 0; run < 10; run++ {
		got := sel.PredictAll(3, 4, 1024)
		for i := range want {
			if got[i].ConfigID != want[i].ConfigID {
				t.Fatalf("run %d: position %d is config %d, was %d — ordering is unstable",
					run, i, got[i].ConfigID, want[i].ConfigID)
			}
		}
	}
	// No NaN may survive into the ranking, and the winner is the cheap model.
	for _, p := range want {
		if math.IsNaN(p.Predicted) {
			t.Fatalf("NaN leaked into the ranking: %+v", p)
		}
	}
	if want[0].ConfigID != cfgs[len(cfgs)-1].ID {
		t.Fatalf("winner is %d, want %d", want[0].ConfigID, cfgs[len(cfgs)-1].ID)
	}
	// The tied block sorts by ConfigID; the NaN model and the quarantined
	// config land at the end with +Inf.
	tied := want[1 : len(want)-2]
	for i := 1; i < len(tied); i++ {
		if tied[i].ConfigID < tied[i-1].ConfigID {
			t.Fatalf("tied predictions out of ConfigID order: %d before %d", tied[i-1].ConfigID, tied[i].ConfigID)
		}
	}
	last2 := want[len(want)-2:]
	for _, p := range last2 {
		if !math.IsInf(p.Predicted, 1) {
			t.Fatalf("expected +Inf tail, got %+v", p)
		}
		if p.ConfigID != cfgs[0].ID && p.ConfigID != quarantined {
			t.Fatalf("unexpected config %d in the +Inf tail", p.ConfigID)
		}
	}
}

// TestSelectFeaturesNoModelExplicit covers both halves of the no-model
// contract: the raw argmin returns a marked fallback (never a zero value),
// and a guarded selector turns that marker into the library's concrete
// default decision.
func TestSelectFeaturesNoModelExplicit(t *testing.T) {
	ds, set := testDataset(t)
	mach := testMachine(t)
	sel, err := Train(ds, set, "knn", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sel.Configs() {
		sel.quarantine(cfg.ID, "predict", "induced for the no-model test")
	}

	raw := sel.SelectFeatures(Features(3, 4, 1024))
	if !raw.Fallback || raw.FallbackReason != "no_model" {
		t.Fatalf("raw argmin with no models = %+v, want explicit no_model fallback", raw)
	}
	if !math.IsNaN(raw.Predicted) {
		t.Fatalf("no-model Predicted = %v, want NaN", raw.Predicted)
	}
	if raw.Label != "library-default" {
		t.Fatalf("no-model label = %q", raw.Label)
	}

	// Guarded: Select recognizes the marker and asks the library's default
	// decision logic for a concrete configuration.
	sel.SetFallback(mach, set)
	guarded := sel.Select(3, 4, 1024)
	if !guarded.Fallback || guarded.FallbackReason != "no_model" {
		t.Fatalf("guarded no-model selection = %+v", guarded)
	}
	topo, err := mach.Topo(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := set.Decide(mach, topo, 1024); guarded.ConfigID != want {
		t.Fatalf("guarded fallback chose %d, library default chooses %d", guarded.ConfigID, want)
	}
}
