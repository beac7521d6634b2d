package core

import (
	"math"
	"testing"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/ml"
)

func testMachine(t *testing.T) machine.Machine {
	t.Helper()
	mach, err := machine.ByName("Hydra")
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// useLearner makes core build f's learners under name for the rest of the
// test; every other name still goes to ml.New.
func useLearner(t *testing.T, name string, f func() ml.Regressor) {
	prev := newLearner
	newLearner = func(n string) (ml.Regressor, error) {
		if n == name {
			return f(), nil
		}
		return prev(n)
	}
	t.Cleanup(func() { newLearner = prev })
}

// panicLearner is a regressor whose methods blow up, standing in for a
// broken third-party model implementation.
type panicLearner struct {
	fitPanics, predictPanics bool
}

func (p *panicLearner) Fit(x [][]float64, y []float64) error {
	if p.fitPanics {
		panic("panicLearner: fit exploded")
	}
	return nil
}

func (p *panicLearner) Predict(x []float64) float64 {
	if p.predictPanics {
		panic("panicLearner: predict exploded")
	}
	return 1e-3
}

func TestGuardedInEnvelopeSelectionsUnchanged(t *testing.T) {
	ds, set := testDataset(t)
	mach := testMachine(t)
	plain, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	guarded.SetFallback(mach, set)

	// Every grid instance — training and held-out alike — is inside the
	// training envelope, so the guarded selector must answer bit-identically.
	for _, n := range []int{2, 3, 4, 5, 6} {
		for _, ppn := range []int{1, 4} {
			for _, m := range []int64{16, 1024, 16384, 262144, 1048576} {
				a := plain.Select(n, ppn, m)
				b := guarded.Select(n, ppn, m)
				if a != b {
					t.Fatalf("guarded selection diverged at n=%d ppn=%d m=%d: %+v vs %+v", n, ppn, m, a, b)
				}
			}
		}
	}
	if guarded.Fallbacks() != 0 {
		t.Errorf("in-envelope queries triggered %d fallbacks", guarded.Fallbacks())
	}
}

func TestGuardedExtrapolationFallsBackToLibraryDefault(t *testing.T) {
	ds, set := testDataset(t)
	mach := testMachine(t)
	sel, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	sel.SetFallback(mach, set)

	// Node count, ppn, and message size each far beyond the training grid.
	queries := []struct {
		n, ppn int
		m      int64
	}{
		{36, 4, 16384},    // nodes beyond [2, 6]
		{4, 32, 16384},    // ppn beyond [1, 4]
		{4, 4, 1 << 28},   // msize beyond 1 MiB
		{36, 32, 1 << 28}, // everything at once
	}
	for _, q := range queries {
		pred := sel.Select(q.n, q.ppn, q.m)
		if !pred.Fallback || pred.FallbackReason != "extrapolation" {
			t.Errorf("n=%d ppn=%d m=%d: want extrapolation fallback, got %+v", q.n, q.ppn, q.m, pred)
		}
		// The fallback answer is the library default's concrete choice.
		topo, err := mach.Topo(q.n, q.ppn)
		if err != nil {
			t.Fatal(err)
		}
		if want := set.Decide(mach, topo, q.m); pred.ConfigID != want {
			t.Errorf("fallback chose %d, library default chooses %d", pred.ConfigID, want)
		}
	}
	if sel.Fallbacks() != len(queries) {
		t.Errorf("fallback counter = %d, want %d", sel.Fallbacks(), len(queries))
	}
}

func TestGuardrailsDisarmedWithoutFallback(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Without SetFallback, even a wild extrapolation is answered by the
	// models — today's behavior, unchanged.
	pred := sel.Select(36, 32, 1<<28)
	if pred.Fallback {
		t.Errorf("unguarded selector fell back: %+v", pred)
	}
	if pred.ConfigID < 1 {
		t.Errorf("unguarded selector returned no config: %+v", pred)
	}
}

func TestPanickingFitQuarantinesConfigs(t *testing.T) {
	useLearner(t, "panic-fit", func() ml.Regressor { return &panicLearner{fitPanics: true} })
	ds, set := testDataset(t)
	mach := testMachine(t)
	sel, err := Train(ds, set, "panic-fit", []int{2, 4, 6})
	if err != nil {
		t.Fatalf("Train must survive panicking learners: %v", err)
	}
	if len(sel.Quarantined()) != len(set.Selectable()) {
		t.Errorf("quarantined %d configs, want all %d", len(sel.Quarantined()), len(set.Selectable()))
	}
	// With every model quarantined, a guarded selector serves the library
	// default...
	sel.SetFallback(mach, set)
	pred := sel.Select(4, 4, 16384)
	if !pred.Fallback {
		t.Errorf("want fallback with zero healthy models, got %+v", pred)
	}
	if pred.ConfigID < 1 {
		t.Errorf("fallback returned no concrete config: %+v", pred)
	}
	// ...and an unguarded one says so explicitly: Fallback with reason
	// "no_model" and a NaN prediction, never a mute zero value a caller
	// would read as "library default, predicted 0s".
	sel.fbSet = nil
	got := sel.Select(4, 4, 16384)
	if !got.Fallback || got.FallbackReason != "no_model" {
		t.Errorf("unguarded selection with no models lacks the fallback marker: %+v", got)
	}
	if !math.IsNaN(got.Predicted) {
		t.Errorf("unguarded no-model prediction = %v, want NaN", got.Predicted)
	}
}

func TestPanickingPredictQuarantinesAndNeverSelects(t *testing.T) {
	useLearner(t, "panic-predict", func() ml.Regressor { return &panicLearner{predictPanics: true} })
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "panic-predict", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	pred := sel.Select(3, 4, 16384)
	if pred.ConfigID != 0 || !pred.Fallback || pred.FallbackReason != "no_model" {
		t.Errorf("all models panic on Predict, want an explicit no_model fallback, got %+v", pred)
	}
	if len(sel.Quarantined()) != len(set.Selectable()) {
		t.Errorf("quarantined %d configs, want all %d", len(sel.Quarantined()), len(set.Selectable()))
	}
	// Quarantine is permanent: the second query must not re-touch the
	// broken models (safePredict returns NaN without calling them).
	if got := sel.Select(3, 4, 16384); got.ConfigID != 0 {
		t.Errorf("quarantined model selected on retry: %+v", got)
	}
	// PredictAll pushes quarantined configs to the end with +Inf.
	preds := sel.PredictAll(3, 4, 16384)
	if len(preds) != len(set.Selectable()) {
		t.Fatalf("PredictAll dropped configs: %d", len(preds))
	}
	for _, p := range preds {
		if !math.IsInf(p.Predicted, 1) {
			t.Errorf("quarantined config %d predicts %v, want +Inf", p.ConfigID, p.Predicted)
		}
	}
}

// boundedLearner predicts a constant absurd time, exercising the
// plausibility guardrail.
type boundedLearner struct{ pred float64 }

func (b *boundedLearner) Fit(x [][]float64, y []float64) error { return nil }
func (b *boundedLearner) Predict(x []float64) float64          { return b.pred }

func TestImplausiblePredictionFallsBack(t *testing.T) {
	useLearner(t, "tiny-pred", func() ml.Regressor { return &boundedLearner{pred: 1e-30} })
	ds, set := testDataset(t)
	mach := testMachine(t)
	sel, err := Train(ds, set, "tiny-pred", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	sel.SetFallback(mach, set)
	// 1e-30 s is far below any training response / slack: implausible.
	pred := sel.Select(3, 4, 16384)
	if !pred.Fallback || pred.FallbackReason != "implausible" {
		t.Errorf("want implausible fallback, got %+v", pred)
	}
}

func TestEnvelopeContainsAndPlausible(t *testing.T) {
	e := newEnvelope([][]float64{{1, 10}, {3, 20}, {2, 15}}, []float64{1e-4, 2e-3, 5e-4})
	if !e.Contains([]float64{2, 12}) || !e.Contains([]float64{1, 10}) || !e.Contains([]float64{3, 20}) {
		t.Error("interior/boundary points must be contained")
	}
	for _, f := range [][]float64{{0.5, 12}, {2, 25}, {2}, {math.NaN(), 12}} {
		if e.Contains(f) {
			t.Errorf("point %v should be outside", f)
		}
	}
	if !e.Plausible(1e-4) || !e.Plausible(0.1) {
		t.Error("in-range and moderately extrapolated times are plausible")
	}
	if e.Plausible(1e-9) || e.Plausible(1e3) {
		t.Error("runaway predictions must be implausible")
	}
}
