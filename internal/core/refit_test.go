package core

import (
	"bytes"
	"testing"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/par"
)

// refitPerturb returns a deep copy of ds with config id's measured times
// scaled by factor — the shape of data the online loop feeds back after a
// machine shift.
func refitPerturb(ds *dataset.Dataset, id int, factor float64) *dataset.Dataset {
	out := &dataset.Dataset{Spec: ds.Spec, Consumed: ds.Consumed}
	out.Samples = append([]dataset.Sample(nil), ds.Samples...)
	for i := range out.Samples {
		if out.Samples[i].ConfigID == id {
			out.Samples[i].Time *= factor
		}
	}
	return out
}

func TestRefitReplacesOnlyListedConfigs(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	base, err := Train(ds, set, "gam", trainNodes)
	if err != nil {
		t.Fatal(err)
	}
	target := set.Selectable()[0].ID
	ds2 := refitPerturb(ds, target, 5)

	cand, err := Refit(base, ds2, set, []int{target})
	if err != nil {
		t.Fatal(err)
	}
	// The refit configuration's model must reflect the new data; every
	// other model must predict exactly as base does.
	changed := false
	for _, n := range []int{3, 5} {
		for _, m := range []int64{16, 16384, 1048576} {
			f := Features(n, 4, m)
			for _, cfg := range set.Selectable() {
				b := base.safePredict(cfg.ID, f)
				c := cand.safePredict(cfg.ID, f)
				if cfg.ID == target {
					if b != c {
						changed = true
					}
					continue
				}
				if b != c {
					t.Fatalf("config %d prediction changed by refit of %d: %v -> %v",
						cfg.ID, target, b, c)
				}
			}
		}
	}
	if !changed {
		t.Fatalf("refit of config %d with 5x times left its predictions untouched", target)
	}
	// The union envelope's response range must cover the 5x-scaled data.
	if cand.Envelope().RespMax < base.Envelope().RespMax {
		t.Fatalf("union envelope shrank: %v -> %v", base.Envelope().RespMax, cand.Envelope().RespMax)
	}
}

func TestRefitDeterministicAcrossPoolSizes(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	base, err := Train(ds, set, "gam", trainNodes)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{set.Selectable()[0].ID, set.Selectable()[1].ID, set.Selectable()[2].ID}
	ds2 := refitPerturb(ds, ids[0], 3)
	fp := FingerprintFor(ds2, "gam", trainNodes)

	var snaps [][]byte
	for _, workers := range []int{1, 4} {
		var (
			cand *Selector
			err  error
		)
		par.AtProcs(workers, func() { cand, err = Refit(base, ds2, set, ids) })
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		b, err := cand.Snapshot(fp)
		if err != nil {
			t.Fatalf("%d workers: snapshot: %v", workers, err)
		}
		snaps = append(snaps, b)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("refit snapshots differ between 1 and 4 fit workers (%d vs %d bytes)",
			len(snaps[0]), len(snaps[1]))
	}
}

func TestRefitLeavesBaseUntouched(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	base, err := Train(ds, set, "gam", trainNodes)
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintFor(ds, "gam", trainNodes)
	before, err := base.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	target := set.Selectable()[0].ID
	if _, err := Refit(base, refitPerturb(ds, target, 5), set, []int{target}); err != nil {
		t.Fatal(err)
	}
	after, err := base.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refit mutated the base selector")
	}
}

func TestRefitRejectsUnknownConfig(t *testing.T) {
	ds, set := testDataset(t)
	base, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refit(base, ds, set, []int{99999}); err == nil {
		t.Fatalf("refit accepted a configuration outside the portfolio")
	}
	if _, err := Refit(base, ds, set, nil); err == nil {
		t.Fatalf("refit accepted an empty configuration list")
	}
}
