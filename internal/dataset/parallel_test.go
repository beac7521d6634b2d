package dataset

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// TestGenerateParallelByteIdentical is the tentpole guarantee: the worker
// count shards the measurement grid but never changes a byte of the output —
// samples, CSV encoding, consumed-budget accumulation order and metrics all
// follow commit order, which is grid order at any worker count.
func TestGenerateParallelByteIdentical(t *testing.T) {
	spec := tinySpec(t, "d2")
	generate := func(procs int) (ds *Dataset, met *bench.Metrics, err error) {
		met = bench.NewMetrics(obs.NewRegistry(), obs.Labels{"dataset": "par-test"})
		par.AtProcs(procs, func() {
			ds, err = Generate(spec, bench.Options{MaxReps: 2, SyncJitter: 1e-7, Metrics: met}, nil)
		})
		return ds, met, err
	}
	want, serialMet, err := generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, met, err := generate(w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
			t.Errorf("workers=%d: CSV differs from serial generation", w)
		}
		if got.Consumed != want.Consumed {
			t.Errorf("workers=%d: consumed %v != serial %v", w, got.Consumed, want.Consumed)
		}
		if met.Measurements.Value() != serialMet.Measurements.Value() ||
			met.Reps.Value() != serialMet.Reps.Value() ||
			met.Consumed.Value() != serialMet.Consumed.Value() ||
			met.RepSeconds.Sum() != serialMet.RepSeconds.Sum() {
			t.Errorf("workers=%d: metrics diverge from serial", w)
		}
	}
}

// TestGenerateParallelProgressMatchesSerial pins the progress callback to
// instance boundaries in grid order, independent of worker count.
func TestGenerateParallelProgressMatchesSerial(t *testing.T) {
	spec := tinySpec(t, "d1")
	run := func(procs int) [][2]int {
		var (
			calls [][2]int
			err   error
		)
		par.AtProcs(procs, func() {
			_, err = Generate(spec, bench.Options{MaxReps: 1},
				func(done, total int) { calls = append(calls, [2]int{done, total}) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	want := run(1)
	if len(want) != spec.NumInstances() {
		t.Fatalf("progress called %d times, want once per instance (%d)", len(want), spec.NumInstances())
	}
	got := run(4)
	if len(got) != len(want) {
		t.Fatalf("workers=4: %d progress calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("progress call %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestJournalIdentityIgnoresWorkers guards the resume contract: every
// option that perturbs timings must change the identity fingerprint. The
// worker count is GOMAXPROCS, not an option, so it cannot leak into it (the
// resume tests below cross worker counts).
func TestJournalIdentityIgnoresWorkers(t *testing.T) {
	spec := tinySpec(t, "d1")
	base := bench.Options{MaxReps: 2, SyncJitter: 1e-7}
	id := journalIdentity(spec, base)
	changed := base
	changed.MaxReps = 3
	if journalIdentity(spec, changed) == id {
		t.Error("MaxReps must change the journal identity")
	}
}

// TestParallelInterruptResumeByteIdentical interrupts a 4-worker sweep
// mid-run, checks the journal holds a usable (strict, non-empty) subset, and
// resumes — at a different worker count — into a dataset byte-identical to
// an uninterrupted serial run.
func TestParallelInterruptResumeByteIdentical(t *testing.T) {
	spec := tinySpec(t, "d3")
	opts := bench.Options{MaxReps: 2, SyncJitter: 1e-7}
	var (
		want *Dataset
		err  error
	)
	par.AtProcs(1, func() { want, err = Generate(spec, opts, nil) })
	if err != nil {
		t.Fatal(err)
	}

	for _, resumeWorkers := range []int{1, 4} {
		journalPath := filepath.Join(t.TempDir(), "d3.journal")
		polls := 0
		par.AtProcs(4, func() {
			_, err = GenerateResumable(spec, opts, journalPath, false, func() bool {
				polls++
				return polls > 5
			}, nil)
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
		_, recorded, err := readJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(recorded) == 0 || len(recorded) >= len(want.Samples) {
			t.Fatalf("parallel interrupt journaled %d of %d samples, want a strict non-empty subset",
				len(recorded), len(want.Samples))
		}

		var got *Dataset
		par.AtProcs(resumeWorkers, func() { got, err = GenerateResumable(spec, opts, journalPath, true, nil, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
			t.Errorf("resume at %d workers: dataset not byte-identical to uninterrupted run", resumeWorkers)
		}
		if got.Consumed != want.Consumed {
			t.Errorf("resume at %d workers: consumed drifted: %v vs %v", resumeWorkers, got.Consumed, want.Consumed)
		}
	}
}

// TestParallelJournalIsContiguousPrefix checks the stronger property the
// ordered commit provides: an interrupted parallel run journals exactly the
// first K cells of the grid — never a cell whose predecessor is missing — so
// readers can trust the journal as a prefix checkpoint.
func TestParallelJournalIsContiguousPrefix(t *testing.T) {
	spec := tinySpec(t, "d2")
	opts := bench.Options{MaxReps: 2, SyncJitter: 1e-7}
	journalPath := filepath.Join(t.TempDir(), "d2.journal")
	polls := 0
	var err error
	par.AtProcs(4, func() {
		_, err = GenerateResumable(spec, opts, journalPath, false, func() bool {
			polls++
			return polls > 4
		}, nil)
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	_, recorded, err := readJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	// Re-enumerate the grid in generation order and demand the journal be a
	// prefix of it.
	var full *Dataset
	par.AtProcs(1, func() { full, err = Generate(spec, opts, nil) })
	if err != nil {
		t.Fatal(err)
	}
	seenEnd := false
	prefix := 0
	for _, s := range full.Samples {
		_, ok := recorded[sampleKey{s.ConfigID, s.Nodes, s.PPN, s.Msize}]
		if ok {
			if seenEnd {
				t.Fatalf("journal has a hole before cell %+v", s)
			}
			prefix++
		} else {
			seenEnd = true
		}
	}
	if prefix != len(recorded) {
		t.Errorf("journal rows off-grid: %d matched of %d", prefix, len(recorded))
	}
	if prefix == 0 || prefix >= len(full.Samples) {
		t.Errorf("prefix %d of %d not a strict non-empty prefix", prefix, len(full.Samples))
	}
}
