package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpicollpred/internal/retrain"
)

// runDriftRecovery runs the closed-loop drift scenario (internal/retrain):
// phase A observes a faithful machine, phase B shifts the machine via a
// fault plan until the loop detects drift, retrains, and redeploys, and
// phase C verifies the detector settles back to ok on the retrained model.
// The scenario runs once per fit worker count and cross-checks that the
// candidate snapshots are byte-identical; the JSON report additionally
// lands in <out>/BENCH_retrain.json. Work happens in throwaway directories
// so the shared dataset cache only ever holds the benchmark grids.
func runDriftRecovery(c *expCtx) (string, error) {
	cacheDir, err := os.MkdirTemp("", "mpicoll-drift-cache-")
	if err != nil {
		return "", err
	}
	defer func() { _ = os.RemoveAll(cacheDir) }()
	workDir, err := os.MkdirTemp("", "mpicoll-drift-work-")
	if err != nil {
		return "", err
	}
	defer func() { _ = os.RemoveAll(workDir) }()

	rep, err := retrain.RunScenario(cacheDir, workDir)
	if err != nil {
		return "", err
	}
	if !rep.Deterministic {
		return "", fmt.Errorf("candidate snapshots differ across fit worker counts %v", rep.FitWorkers)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	bench := filepath.Join(c.outDir, "BENCH_retrain.json")
	if err := os.WriteFile(bench, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	c.log.Infof("drift-recovery report -> %s", bench)
	return rep.Render(), nil
}
