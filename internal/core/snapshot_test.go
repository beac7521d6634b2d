package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/snapshot"
)

// TestSnapshotRoundTripAllLearners is the acceptance test of the
// persistence layer: for every learner ml.New builds, a save → load round trip
// must reproduce the in-memory selector's predictions bit-identically on the
// full grid — training cells, held-out node counts, and held-out message
// sizes alike.
func TestSnapshotRoundTripAllLearners(t *testing.T) {
	ds, set := testDataset(t)
	mach, _, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	trainNodes := []int{2, 4, 6}
	for _, learner := range ml.Names() {
		sel, err := Train(ds, set, learner, trainNodes)
		if err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		// Arm the in-memory selector like a loaded one: LoadSnapshot always
		// re-arms the guardrail fallback, so the comparison must too.
		sel.SetFallback(mach, set)

		fp := FingerprintFor(ds, learner, trainNodes)
		path := filepath.Join(t.TempDir(), learner+".snap")
		if err := sel.SaveSnapshot(path, fp); err != nil {
			t.Fatalf("%s: save: %v", learner, err)
		}
		got, gotFP, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: load: %v", learner, err)
		}
		if gotFP.String() != fp.String() {
			t.Errorf("%s: fingerprint %s, want %s", learner, gotFP, fp)
		}
		if got.Coll != sel.Coll || got.Learner != sel.Learner {
			t.Errorf("%s: identity %s/%s, want %s/%s", learner, got.Coll, got.Learner, sel.Coll, sel.Learner)
		}

		// The full grid plus extrapolating points beyond it.
		nodes := append(append([]int(nil), ds.Spec.Nodes...), 9, 40)
		msizes := append(append([]int64(nil), ds.Spec.Msizes...), 3, 1<<23)
		for _, n := range nodes {
			for _, ppn := range ds.Spec.PPNs {
				for _, m := range msizes {
					want := sel.PredictAll(n, ppn, m)
					have := got.PredictAll(n, ppn, m)
					if len(want) != len(have) {
						t.Fatalf("%s: %d/%d/%d: %d vs %d predictions", learner, n, ppn, m, len(want), len(have))
					}
					for i := range want {
						if want[i].ConfigID != have[i].ConfigID ||
							!floats.Exact(want[i].Predicted, have[i].Predicted) {
							t.Fatalf("%s: %d/%d/%d: prediction %d = (%d, %v), want (%d, %v)",
								learner, n, ppn, m, i,
								have[i].ConfigID, have[i].Predicted,
								want[i].ConfigID, want[i].Predicted)
						}
					}
					w, h := sel.Select(n, ppn, m), got.Select(n, ppn, m)
					if w.ConfigID != h.ConfigID || w.Fallback != h.Fallback ||
						w.FallbackReason != h.FallbackReason ||
						!(floats.Exact(w.Predicted, h.Predicted) ||
							(w.Predicted != w.Predicted && h.Predicted != h.Predicted)) {
						t.Fatalf("%s: %d/%d/%d: Select = %+v, want %+v", learner, n, ppn, m, h, w)
					}
				}
			}
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "knn", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintFor(ds, "knn", []int{2, 4, 6})
	a, err := sel.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sel.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two snapshots of the same selector differ")
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "linear", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sel.Snapshot(FingerprintFor(ds, "linear", []int{2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := DecodeSnapshot(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x01
	if _, _, err := DecodeSnapshot(flipped); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	versioned := append([]byte(nil), data...)
	versioned[len(snapshot.Magic)] = 0xFE
	if _, _, err := DecodeSnapshot(versioned); err == nil {
		t.Error("version-mismatched snapshot accepted")
	}
	if _, _, err := DecodeSnapshot([]byte("not a snapshot at all")); err == nil {
		t.Error("garbage accepted")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "broken.snap")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(path); err == nil {
		t.Error("LoadSnapshot accepted a corrupt file")
	}
	if _, _, err := LoadSnapshot(filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("LoadSnapshot accepted a missing file")
	}
}

// TestSnapshotRejectsSlackSlot: the selector header keeps a plausibility
// slack slot, and it always holds 0, which means DefaultPlausibilitySlack.
// A snapshot asking for another slack would be served at the default, so
// it is refused with an error naming the field.
func TestSnapshotRejectsSlackSlot(t *testing.T) {
	ds, set := testDataset(t)
	trainNodes := []int{2, 4, 6}
	sel, err := Train(ds, set, "linear", trainNodes)
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintFor(ds, "linear", trainNodes)
	data, err := sel.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.Unframe(data)
	if err != nil {
		t.Fatal(err)
	}
	// The header before the slot: the fingerprint, then the collective,
	// the learner, the training nodes and the zeroed fit wall time.
	var w snapshot.Writer
	w.String(fp.Dataset)
	w.U64(fp.DatasetHash)
	w.String(fp.Lib)
	w.String(fp.Version)
	w.String(fp.Machine)
	w.String(fp.Learner)
	w.Ints(fp.TrainNodes)
	w.String(sel.Coll)
	w.String(sel.Learner)
	w.Ints(sel.TrainNodes)
	w.F64(0)
	off := len(w.Bytes())
	if !bytes.HasPrefix(payload, w.Bytes()) || binary.LittleEndian.Uint64(payload[off:]) != 0 {
		t.Fatal("snapshot header does not end in a zero slack slot")
	}
	bad := slices.Clone(payload)
	binary.LittleEndian.PutUint64(bad[off:], math.Float64bits(10))
	if _, _, err := DecodeSnapshot(snapshot.Frame(bad)); err == nil || !strings.Contains(err.Error(), "plausibility slack slot") {
		t.Errorf("slack 10 in the slot: err %v, want the plausibility slack slot named", err)
	}
	if _, _, err := DecodeSnapshot(snapshot.Frame(payload)); err != nil {
		t.Errorf("re-framed unchanged payload: %v", err)
	}
}

func TestSnapshotPersistsQuarantine(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "knn", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	victim := sel.Configs()[1].ID
	sel.quarantine(victim, "predict", "induced for the snapshot test")

	data, err := sel.Snapshot(FingerprintFor(ds, "knn", []int{2, 4, 6}))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if reason, ok := got.Quarantined()[victim]; !ok || reason == "" {
		t.Fatalf("quarantine record lost: %v", got.Quarantined())
	}
	if got.Select(3, 4, 1024).ConfigID == victim {
		t.Fatal("restored selector picked the quarantined configuration")
	}
}

// TestFailedSaveLeavesNoTmp saves onto a path that is a directory, so the
// final rename fails: the save must report it, remove its tmp file, and
// leave a snapshot saved earlier beside it readable and unchanged.
func TestFailedSaveLeavesNoTmp(t *testing.T) {
	ds, set := testDataset(t)
	sel, err := Train(ds, set, "gam", []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintFor(ds, "gam", []int{2, 4, 6})
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if err := sel.SaveSnapshot(good, fp); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked.snap")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sel.SaveSnapshot(blocked, fp); err == nil {
		t.Fatal("saving onto a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "good.snap" && e.Name() != "blocked.snap" {
			t.Errorf("failed save left %s behind", e.Name())
		}
	}
	after, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Error("failed save changed the earlier snapshot")
	}
	if _, _, err := LoadSnapshot(good); err != nil {
		t.Errorf("earlier snapshot no longer loads: %v", err)
	}
}
