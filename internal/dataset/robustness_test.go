package dataset

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/fault"
)

func tinySpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := SpecByName(name, ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes = []int{2, 3}
	spec.PPNs = []int{2}
	spec.Msizes = []int64{64, 4096}
	return spec
}

func csvBytes(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	d, err := Generate(tinySpec(t, "d1"), bench.Options{MaxReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir, ScaleSmoke); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	f, err := os.Open(cachePath(dir, "d1", ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadCSV(f); err != nil {
		t.Errorf("saved cache unreadable: %v", err)
	}
	// A write whose rename fails (the target is a directory) removes its
	// temp file too.
	blocked := filepath.Join(dir, "blocked.csv")
	if err := os.MkdirAll(filepath.Join(blocked, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile(blocked); err == nil {
		t.Fatal("writing onto a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("failed write left temp files behind: %v", tmps)
	}
}

func TestGenerateResumableMatchesUninterruptedRun(t *testing.T) {
	spec := tinySpec(t, "d2")
	opts := bench.Options{MaxReps: 2, SyncJitter: 1e-7}
	want, err := Generate(spec, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	journalPath := filepath.Join(t.TempDir(), "d2.journal")
	// First run: interrupt before the 6th measurement (stop is polled once
	// per fresh measurement).
	polls := 0
	_, err = GenerateResumable(spec, opts, journalPath, false, func() bool {
		polls++
		return polls > 5
	}, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	_, recorded, err := readJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("interrupted run journaled nothing")
	}
	if len(recorded) >= len(want.Samples) {
		t.Fatalf("interrupted run journaled everything (%d samples)", len(recorded))
	}

	// Second run resumes and completes.
	got, err := GenerateResumable(spec, opts, journalPath, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
		t.Error("resumed dataset is not byte-identical to an uninterrupted run")
	}
	if got.Consumed != want.Consumed {
		t.Errorf("consumed budget drifted: %v vs %v", got.Consumed, want.Consumed)
	}
}

func TestGenerateResumableStopBeforeAnything(t *testing.T) {
	spec := tinySpec(t, "d1")
	journalPath := filepath.Join(t.TempDir(), "d1.journal")
	_, err := GenerateResumable(spec, bench.Options{MaxReps: 1}, journalPath, false,
		func() bool { return true }, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	// Resume from the (header-only) journal still completes.
	got, err := GenerateResumable(spec, bench.Options{MaxReps: 1}, journalPath, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Generate(spec, bench.Options{MaxReps: 1}, nil)
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
		t.Error("resume-from-empty diverged from a fresh run")
	}
}

func TestResumeRejectsMismatchedJournal(t *testing.T) {
	spec := tinySpec(t, "d1")
	clean := bench.Options{MaxReps: 2, SyncJitter: 1e-7}
	plan, err := fault.Parse("straggler:node=0,factor=8")
	if err != nil {
		t.Fatal(err)
	}
	faulty := clean
	faulty.Faults = plan

	journalPath := filepath.Join(t.TempDir(), "d1.journal")
	// Complete a faulty run so the journal is full of perturbed samples.
	if _, err := GenerateResumable(spec, faulty, journalPath, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Resuming a CLEAN run from that journal must ignore it entirely.
	got, err := GenerateResumable(spec, clean, journalPath, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Generate(spec, clean, nil)
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
		t.Error("clean run reused fault-perturbed journal rows")
	}
}

func TestJournalToleratesTornLastLine(t *testing.T) {
	spec := tinySpec(t, "d1")
	opts := bench.Options{MaxReps: 1}
	journalPath := filepath.Join(t.TempDir(), "d1.journal")
	if _, err := GenerateResumable(spec, opts, journalPath, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, full, err := readJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a truncated trailing row.
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3,1,2,2,40"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, torn, err := readJournal(journalPath)
	if err != nil {
		t.Fatalf("torn journal must still load: %v", err)
	}
	if len(torn) != len(full) {
		t.Errorf("torn journal lost intact rows: %d vs %d", len(torn), len(full))
	}
	// And a resumed run from the torn journal still completes correctly.
	got, err := GenerateResumable(spec, opts, journalPath, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Generate(spec, opts, nil)
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
		t.Error("resume from torn journal diverged")
	}
}

func TestValidateCleanDataset(t *testing.T) {
	d, err := Generate(tinySpec(t, "d1"), bench.Options{MaxReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Validate()
	if !rep.Clean() {
		t.Errorf("freshly generated dataset failed validation: %s", rep)
	}
}

func TestValidateFlagsBadRows(t *testing.T) {
	d, err := Generate(tinySpec(t, "d1"), bench.Options{MaxReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nGood := len(d.Samples)
	d.Samples[0].Time = math.NaN()
	d.Samples[1].Time = -1
	d.Samples[2].Time = 0
	d.Samples[3].Reps = 0
	dup := d.Samples[5]
	d.Samples = append(d.Samples, dup)

	rep := d.Validate()
	if len(rep.Bad) != 5 {
		t.Fatalf("bad rows = %d, want 5: %s", len(rep.Bad), rep)
	}
	reasons := rep.String()
	for _, want := range []string{"non-finite", "non-positive", "reps 0 < 1", "duplicate"} {
		if !strings.Contains(reasons, want) {
			t.Errorf("report missing reason %q:\n%s", want, reasons)
		}
	}
	// The 4 corrupted rows leave coverage holes (the duplicate does not).
	if rep.MissingCells != 4 {
		t.Errorf("missing cells = %d, want 4", rep.MissingCells)
	}

	qrep := d.Quarantine()
	if len(qrep.Bad) != 5 {
		t.Errorf("quarantine dropped %d rows, want 5", len(qrep.Bad))
	}
	if len(d.Samples) != nGood-4 {
		t.Errorf("samples after quarantine = %d, want %d", len(d.Samples), nGood-4)
	}
	if d.Validate().MissingCells != 4 {
		t.Error("quarantined dataset should still report its coverage holes")
	}
	// The corrupted rows must be gone from the index.
	bad := qrep.Bad[0].Sample
	if got, ok := d.Lookup(bad.ConfigID, bad.Nodes, bad.PPN, bad.Msize); ok && (math.IsNaN(got) || got <= 0) {
		t.Errorf("quarantined value still served by Lookup: %v", got)
	}
}

func TestLoadOrGenerateQuarantinesCorruptRows(t *testing.T) {
	dir := t.TempDir()
	spec, _ := SpecByName("d4", ScaleSmoke)
	spec.Nodes = []int{2}
	spec.PPNs = []int{2}
	d, err := Generate(spec, bench.Options{MaxReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(d.Samples)
	d.Samples[0].Time = math.NaN()
	if err := d.Save(dir, ScaleSmoke); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrGenerate(dir, "d4", ScaleSmoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != n-1 {
		t.Errorf("loaded %d samples, want %d (NaN row quarantined)", len(got.Samples), n-1)
	}
}

func TestGenerateWithFaultsDiverges(t *testing.T) {
	spec := tinySpec(t, "d1")
	clean, err := Generate(spec, bench.Options{MaxReps: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("straggler:node=0,factor=4")
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Generate(spec, bench.Options{MaxReps: 1, Faults: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(csvBytes(t, clean), csvBytes(t, faulty)) {
		t.Error("fault injection had no effect on the dataset")
	}
	// In aggregate a 4x straggler costs real time. (Individual samples may
	// jitter either way because noise draws land on different transfers.)
	if faulty.Consumed <= clean.Consumed {
		t.Errorf("faulty run consumed %v <= clean %v", faulty.Consumed, clean.Consumed)
	}
}

// TestZeroSeverityFaultPlanIsNoPlan is a metamorphic relation: a plan whose
// every injector is installed at zero severity (a factor-1 straggler and
// NIC, a zero-sigma noise burst, zero-scale clock outliers on every rank)
// must generate datasets bit-identical to no plan at all. An injector that
// draws from a shared noise stream, or perturbs a timing even at zero
// severity, breaks it.
func TestZeroSeverityFaultPlanIsNoPlan(t *testing.T) {
	plan, err := fault.Parse("straggler:node=0,factor=1;nic:node=1,factor=1,period=1e-5;" +
		"noise:sigma=0,start=0,dur=1;clock:prob=1,scale=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d5", "d6", "d8"} {
		spec, err := SpecByName(name, ScaleSmoke)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultGenOptions(spec, ScaleSmoke)
		clean, err := Generate(spec, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = plan
		zero, err := Generate(spec, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBytes(t, clean), csvBytes(t, zero)) {
			t.Errorf("%s: a zero-severity fault plan changed the dataset", name)
		}
	}
}
