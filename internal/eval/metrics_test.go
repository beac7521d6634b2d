package eval

import (
	"testing"

	"mpicollpred/internal/core"
)

func TestModelErrorMetrics(t *testing.T) {
	ds, _, set := evalDataset(t, "d1")
	sel, err := core.Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	me, err := ModelError(ds, sel, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if me.N == 0 || me.MAE <= 0 || me.RMSE <= 0 || me.MAPE <= 0 {
		t.Fatalf("degenerate metrics: %+v", me)
	}
	if me.RMSE < me.MAE {
		t.Errorf("RMSE (%v) cannot be below MAE (%v)", me.RMSE, me.MAE)
	}
	// Out-of-the-box learners on this smooth simulated surface should land
	// within a sane relative error band.
	if me.MAPE > 1.0 {
		t.Errorf("MAPE %.2f implausibly high", me.MAPE)
	}
	if _, err := ModelError(ds, sel, []int{99}); err == nil {
		t.Error("expected error for empty test set")
	}
}

func TestPermutationImportanceRanksMsizeHigh(t *testing.T) {
	ds, _, set := evalDataset(t, "d1")
	sel, err := core.Train(ds, set, "xgboost", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(ds, sel, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != len(FeatureNames()) {
		t.Fatalf("got %d importances", len(imp))
	}
	// The paper: "the message size turned out to be the most important
	// factor in many cases". Under the MAPE-degradation metric, scrambling
	// the message size must hurt the runtime predictions the most.
	if imp[0].Feature != "log2(msize)" {
		t.Errorf("log2(msize) should rank first: %+v", imp)
	}
	// Scrambling a feature can only make prediction accuracy worse or
	// equal up to noise; strong negative degradation indicates a bug.
	for _, f := range imp {
		if f.Degradation < -0.05 {
			t.Errorf("feature %s improved accuracy by %.3f when scrambled", f.Feature, -f.Degradation)
		}
	}
}
