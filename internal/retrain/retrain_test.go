package retrain

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/par"
)

// trainBase trains a smoke-scale d1 gam selector and saves it as a
// snapshot, returning the snapshot path and the shared dataset cache dir.
func trainBase(t *testing.T, cacheDir, dir string) (string, *core.Selector, dataset.Spec) {
	t.Helper()
	ds, err := dataset.LoadOrGenerate(cacheDir, "d1", dataset.ScaleSmoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dataset.SpecByName("d1", dataset.ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	trainNodes := []int{2, 3, 4, 5}
	sel, err := core.Train(ds, set, "gam", trainNodes)
	if err != nil {
		t.Fatal(err)
	}
	sel.SetFallback(mach, set)
	path := filepath.Join(dir, "base.snap")
	if err := sel.SaveSnapshot(path, core.FingerprintFor(ds, "gam", trainNodes)); err != nil {
		t.Fatal(err)
	}
	return path, sel, spec
}

// writeAuditLog serves every grid instance through sel and logs the
// decisions, mimicking what a serving process would have audited.
func writeAuditLog(t *testing.T, path string, sel *core.Selector, spec dataset.Spec) {
	t.Helper()
	clock := func() time.Time { return time.UnixMicro(1) }
	lg, err := audit.NewLogger(path, audit.LoggerOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lg.Close() }()
	seq := 0
	for _, n := range spec.Nodes {
		for _, ppn := range spec.PPNs {
			for _, m := range spec.Msizes {
				seq++
				pred := sel.Select(n, ppn, m)
				rec := audit.Record{
					V: audit.SchemaVersion, TimeUnixUs: int64(seq),
					RequestID: fmt.Sprintf("t-%d", seq), Endpoint: "select",
					Model: "d1-gam", Coll: spec.Coll, Lib: spec.Lib,
					Machine: spec.Machine, Dataset: "d1", Generation: 1,
					Nodes: n, PPN: ppn, Msize: m,
					ConfigID: pred.ConfigID, AlgID: pred.AlgID, Label: pred.Label,
					Fallback: pred.Fallback, FallbackReason: pred.FallbackReason,
				}
				if !pred.Fallback {
					p := pred.Predicted
					rec.PredictedSeconds = &p
				}
				if err := lg.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOnceDeterministicAcrossFitWorkers is the offline half of the
// determinism acceptance: the same audit log, base snapshot, and drift plan
// must produce byte-identical candidate snapshots at 1 and 4 fit workers.
func TestOnceDeterministicAcrossFitWorkers(t *testing.T) {
	cacheDir := t.TempDir()
	dir := t.TempDir()
	basePath, sel, spec := trainBase(t, cacheDir, dir)
	logPath := filepath.Join(dir, "audit.jsonl")
	writeAuditLog(t, logPath, sel, spec)
	plan, err := fault.Parse("straggler:node=0,factor=4")
	if err != nil {
		t.Fatal(err)
	}

	var candidates [][]byte
	for _, workers := range []int{1, 4} {
		outDir := filepath.Join(dir, fmt.Sprintf("out%d", workers))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			t.Fatal(err)
		}
		var rep *OnceReport
		par.AtProcs(workers, func() {
			rep, err = Once(OnceOptions{
				SnapshotPath: basePath, AuditPath: logPath, OutDir: outDir,
				CacheDir: cacheDir, Drift: plan,
			})
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if rep.Candidate == nil || rep.Ingested == 0 {
			t.Fatalf("%d workers: empty report %+v", workers, rep)
		}
		b, err := os.ReadFile(rep.Candidate.Path)
		if err != nil {
			t.Fatal(err)
		}
		candidates = append(candidates, b)
	}
	if !bytes.Equal(candidates[0], candidates[1]) {
		t.Fatalf("candidates differ between 1 and 4 fit workers (%d vs %d bytes)",
			len(candidates[0]), len(candidates[1]))
	}
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(candidates[0], base) {
		t.Fatalf("retraining under a 4x straggler produced a byte-identical model")
	}
	// Loaded candidate must predict (sanity that the refit produced a
	// servable snapshot, not just different bytes).
	cand, _, err := core.LoadSnapshot(filepath.Join(dir, "out1", "d1-gam.retrain001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if p := cand.Select(3, 1, 4096); p.ConfigID < 1 {
		t.Fatalf("candidate selects invalid config: %+v", p)
	}
}

// TestScenarioDriftRecovery runs the full closed loop in-process: baseline
// phase clean, drift detected after the machine shifts, candidate deployed,
// detector back to ok on the shifted machine — deterministically across fit
// worker counts.
func TestScenarioDriftRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full drift scenario in -short mode")
	}
	rep, err := RunScenario(t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("expected 3 phases, got %+v", rep.Phases)
	}
	if lvl := rep.Phases[0].EndLevel; lvl != "ok" {
		t.Errorf("baseline phase ends at level %q", lvl)
	}
	if !rep.DriftDetected {
		t.Fatalf("drift never detected: %+v", rep)
	}
	if rep.DeployOutcome != "reloaded" {
		t.Errorf("deploy outcome %q", rep.DeployOutcome)
	}
	if !rep.Recovered {
		t.Errorf("loop did not recover: phase C %+v", rep.Phases[2])
	}
	if !rep.Deterministic {
		t.Errorf("candidates differ across fit worker counts %v", rep.FitWorkers)
	}
	if rep.Cycles != 1 {
		t.Errorf("expected exactly one retrain cycle, got %d", rep.Cycles)
	}
	// The rendered report must be reproducible (it is committed to
	// results/drift_recovery.txt).
	if out := rep.Render(); out == "" || len(out) < 100 {
		t.Errorf("render too small:\n%s", out)
	}
}
