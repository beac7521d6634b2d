package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
)

// replayFixture builds a small log: two unique decisions served repeatedly,
// plus one fallback that replay must skip.
func replayFixture() []Record {
	var recs []Record
	add := func(r Record) {
		r.V = SchemaVersion
		r.TimeUnixUs = int64(len(recs) + 1)
		recs = append(recs, r)
	}
	for i := 0; i < 3; i++ {
		add(mkRecord("a", 4, 8, 1024, 1.0e-4))
	}
	add(mkRecord("b", 8, 8, 4096, 2.0e-4))
	add(mkFallback("c", 1<<40, "extrapolation"))
	return recs
}

func TestReplayIsDeterministicAndDedupes(t *testing.T) {
	recs := replayFixture()
	rep, err := Replay(recs, ReplayOptions{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique != 2 || rep.Measured != 2 {
		t.Fatalf("unique=%d measured=%d, want 2/2", rep.Unique, rep.Measured)
	}
	if rep.Skipped != 1 {
		t.Fatalf("skipped=%d, want 1 (the fallback)", rep.Skipped)
	}
	if rep.Rows[0].Count != 3 || rep.Rows[1].Count != 1 {
		t.Fatalf("dedupe counts %d/%d, want 3/1", rep.Rows[0].Count, rep.Rows[1].Count)
	}
	for _, row := range rep.Rows {
		if !(row.Observed > 0) {
			t.Fatalf("row %+v: non-positive observed runtime", row)
		}
	}
	if len(rep.Models) != 1 || rep.Models[0].Model != "d1-gam" || rep.Models[0].Rows != 2 {
		t.Fatalf("model aggregates: %+v", rep.Models)
	}

	// Same log, reversed order → byte-identical report.
	rev := make([]Record, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	again, err := Replay(rev, ReplayOptions{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != again.Render() {
		t.Fatalf("replay depends on record order:\n%s\n--- vs ---\n%s", rep.Render(), again.Render())
	}
	for _, want := range []string{"d1-gam", "binomial", "Replay error per model", "fallback decisions skipped: 1"} {
		if !strings.Contains(rep.Render(), want) {
			t.Errorf("render missing %q:\n%s", want, rep.Render())
		}
	}
}

// TestReplayCapsInstances feeds more than twice replayInstanceCap unique
// decisions; the sample takes evenly spaced positions from the smallest.
func TestReplayCapsInstances(t *testing.T) {
	const unique = 2*replayInstanceCap + 2
	var recs []Record
	for i := 0; i < unique; i++ {
		r := mkRecord("r", 4, 8, int64(1024*(i+1)), 1.0e-4)
		r.V = SchemaVersion
		r.TimeUnixUs = int64(i + 1)
		recs = append(recs, r)
	}
	rep, err := Replay(recs, ReplayOptions{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique != unique {
		t.Fatalf("unique=%d, want %d", rep.Unique, unique)
	}
	if rep.Measured != replayInstanceCap {
		t.Fatalf("measured=%d, want %d", rep.Measured, replayInstanceCap)
	}
	for k, row := range rep.Rows {
		if want := int64(1024 * (k*unique/replayInstanceCap + 1)); row.Msize != want {
			t.Fatalf("row %d: msize %d, want %d (evenly spaced from the smallest)", k, row.Msize, want)
		}
	}
}

// TestReplaySamplesModelsEvenly: between replayInstanceCap and twice it
// unique decisions, the sample must still spread over the whole sort
// order, so a model that sorts last keeps about its share of the rows.
func TestReplaySamplesModelsEvenly(t *testing.T) {
	const perModel = 50
	var recs []Record
	for _, model := range []string{"d1-gam", "d1-knn"} {
		for i := 0; i < perModel; i++ {
			r := mkRecord("r", 4, 8, int64(1024*(i+1)), 1.0e-4)
			r.Model = model
			r.V = SchemaVersion
			r.TimeUnixUs = int64(len(recs) + 1)
			recs = append(recs, r)
		}
	}
	rep, err := Replay(recs, ReplayOptions{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique != 2*perModel || rep.Measured != replayInstanceCap {
		t.Fatalf("unique=%d measured=%d, want %d/%d", rep.Unique, rep.Measured, 2*perModel, replayInstanceCap)
	}
	if len(rep.Models) != 2 {
		t.Fatalf("model aggregates: %+v", rep.Models)
	}
	for _, m := range rep.Models {
		if m.Rows < replayInstanceCap/2-1 {
			t.Fatalf("model %s replayed %d rows, want at least %d of %d", m.Model, m.Rows, replayInstanceCap/2-1, replayInstanceCap)
		}
	}
}

func TestReplayRejectsUnknownWorld(t *testing.T) {
	r := mkRecord("r", 4, 8, 1024, 1.0e-4)
	r.V = SchemaVersion
	r.TimeUnixUs = 1
	r.Machine = "NoSuchMachine"
	if _, err := Replay([]Record{r}, ReplayOptions{Reps: 1}); err == nil {
		t.Fatal("want error for unknown machine")
	}
}

// replayPinFixture is a log over four (machine, library, collective)
// triples: both libraries, Hydra, Jupiter and SuperMUC-NG, several
// configurations and message sizes per triple, repeated decisions, and one
// fallback.
func replayPinFixture() []Record {
	type world struct{ model, mach, lib, coll, dataset string }
	worlds := []world{
		{"d1-gam", "Hydra", "Open MPI", "bcast", "d1"},
		{"d4-knn", "Jupiter", "Open MPI", "allreduce", "d4"},
		{"d6-xgboost", "Hydra", "Intel MPI", "alltoall", "d6"},
		{"d8-rf", "SuperMUC-NG", "Open MPI", "bcast", "d8"},
		{"d5-gam", "Hydra", "Intel MPI", "allreduce", "d5"},
	}
	var recs []Record
	for wi, w := range worlds {
		for i := 0; i < 14; i++ {
			r := mkRecord(fmt.Sprintf("%s-%d", w.model, i), 2+i%3, 2+2*(i%2), int64(64)<<uint(2*(i%5)), 1e-5*float64(1+i+wi))
			r.Model, r.Machine, r.Lib, r.Coll, r.Dataset = w.model, w.mach, w.lib, w.coll, w.dataset
			r.ConfigID = 1 + (i+wi)%4
			r.Label = fmt.Sprintf("config %d", r.ConfigID)
			if i%7 == 6 {
				// A repeat of the previous decision.
				r = recs[len(recs)-1]
				r.RequestID += "-again"
			}
			r.V = SchemaVersion
			r.TimeUnixUs = int64(len(recs) + 1)
			recs = append(recs, r)
		}
	}
	fb := mkFallback("fallback", 1<<40, "extrapolation")
	fb.V = SchemaVersion
	fb.TimeUnixUs = int64(len(recs) + 1)
	return append(recs, fb)
}

// TestReplayReportPinned pins the rendered replay of a mixed log, and the
// exact bits of every observed time, which the rendering rounds. Replay's
// seeds, repetition counts and budgets all show in the observed times, so a
// change to how served decisions are re-measured moves these digests.
func TestReplayReportPinned(t *testing.T) {
	rep, err := Replay(replayPinFixture(), ReplayOptions{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || len(rep.Models) != 5 {
		t.Fatalf("skipped=%d models=%d, want 1 and 5", rep.Skipped, len(rep.Models))
	}
	const (
		wantRender   = "334e49d0ee9738b5da7c4bc80eb1fde36f3210a8d4d941a771067286a5403626"
		wantObserved = "26680acae8946887be4081cedfb2cf6e260b1736bee5b7d0ffb13c22aa8cb474"
	)
	sum := sha256.Sum256([]byte(rep.Render()))
	if got := hex.EncodeToString(sum[:]); got != wantRender {
		t.Errorf("replay report digest %s, want %s\n%s", got, wantRender, rep.Render())
	}
	h := sha256.New()
	for _, row := range rep.Rows {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(row.Observed))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantObserved {
		t.Errorf("observed-time digest %s, want %s", got, wantObserved)
	}
}
