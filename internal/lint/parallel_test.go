package lint

import (
	"encoding/json"
	"os"
	"testing"

	"mpicollpred/internal/par"
)

// TestParallelOutputByteIdentical is the ordering contract with teeth: the
// concurrent runner must produce output indistinguishable from the serial
// one, byte for byte, across every testdata package at once. The dev
// container may have a single core — this asserts identity, not speedup;
// the ≥2× speedup floor is asserted in CI on `mpicollvet -benchout`'s report.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-package analysis in -short mode")
	}
	run := func(workers int) (int, string) {
		var (
			code      int
			out, errb string
		)
		par.AtProcs(workers, func() {
			code, out, errb = runCLI("-json",
				"./testdata/src/driver/...",
				"./testdata/src/lockscope/...",
				"./testdata/src/goleak/...",
				"./testdata/src/waitgroup/...",
				"./testdata/src/atomicmix/...",
				"./testdata/src/ctxflow/...",
				"./testdata/src/floateq/...",
				"./testdata/src/seededrand/...",
			)
		})
		if code != ExitFindings {
			t.Fatalf("workers=%d exit = %d, want %d\nstderr:\n%s", workers, code, ExitFindings, errb)
		}
		return code, out
	}
	_, serial := run(1)
	_, parallel := run(4)
	if serial == "" {
		t.Fatal("no output from serial run")
	}
	if serial != parallel {
		t.Errorf("parallel output differs from serial\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
}

// TestBenchMode exercises the -benchout self-check end to end (speedup on a
// possibly single-core machine is not asserted locally).
func TestBenchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping bench harness in -short mode")
	}
	path := t.TempDir() + "/bench.json"
	var (
		code int
		errb string
	)
	par.AtProcs(2, func() { code, _, errb = runCLI("-benchout", path, "./testdata/src/driver/...") })
	if code != ExitClean {
		t.Fatalf("bench exit = %d, want %d\nstderr:\n%s", code, ExitClean, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res par.Report
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("bench legs produced different output")
	}
	detail, _ := res.Serial.Detail.(map[string]any)
	packages, _ := detail["packages"].(float64)
	if res.Tool != "mpicollvet" || res.Workers != 2 || packages == 0 ||
		res.Serial.Seconds <= 0 || res.Parallel.Seconds <= 0 {
		t.Errorf("implausible bench result: %+v", res)
	}
}
