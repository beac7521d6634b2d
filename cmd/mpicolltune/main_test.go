package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mpicollpred/internal/dataset"
)

// build compiles the CLI into a fresh directory, which it also returns as
// the working directory for the run.
func build(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "mpicolltune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestFailingRunWritesProfilesAndMetrics checks that a run that fails (an
// unknown dataset) still completes both profiles and the metrics snapshot,
// although it exits through os.Exit.
func TestFailingRunWritesProfilesAndMetrics(t *testing.T) {
	bin, dir := build(t)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	metrics := filepath.Join(dir, "metrics.json")
	run := exec.Command(bin, "-dataset", "d9", "-learner", "gam", "-quiet",
		"-cache", filepath.Join(dir, "cache"), "-save", filepath.Join(dir, "x.snap"),
		"-cpuprofile", cpu, "-memprofile", mem, "-metrics", metrics)
	out, err := run.CombinedOutput()
	if code := run.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("exit code %d (%v), want 1\n%s", code, err, out)
	}
	for _, path := range []string{cpu, mem, metrics} {
		if fi, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty after a failed run", filepath.Base(path))
		}
	}
}

// TestBenchoutSmoke runs the -benchout self-check on a smoke-scale matrix
// and checks that serial and parallel training wrote identical snapshots.
func TestBenchoutSmoke(t *testing.T) {
	bin, dir := build(t)
	report := filepath.Join(dir, "bench.json")
	run := exec.Command(bin, "-dataset", "d4", "-learner", "knn,gam", "-scale", "smoke",
		"-cache", filepath.Join(dir, "cache"), "-benchout", report, "-quiet")
	run.Env = append(os.Environ(), "GOMAXPROCS=2")
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("mpicolltune: %v\n%s", err, out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool      string `json:"tool"`
		Workers   int    `json:"workers"`
		Identical bool   `json:"identical"`
		Serial    struct {
			Detail struct {
				Selectors    int     `json:"selectors"`
				ModelsFitted int     `json:"models_fitted"`
				FitWall      float64 `json:"fit_wall_seconds"`
			} `json:"detail"`
		} `json:"serial"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	d := rep.Serial.Detail
	if !rep.Identical || rep.Tool != "mpicolltune" || rep.Workers != 2 ||
		d.Selectors != 2 || d.ModelsFitted == 0 || d.FitWall <= 0 {
		t.Errorf("implausible report:\n%s", data)
	}
}

// TestTrainNodesOutsideGridFailFast: d8's default training nodes lie
// outside its smoke grid. The run must fail before it generates any dataset
// of the matrix, naming both node lists and the flag that fixes it.
func TestTrainNodesOutsideGridFailFast(t *testing.T) {
	bin, dir := build(t)
	cache := filepath.Join(dir, "cache")
	run := exec.Command(bin, "-dataset", "d1,d8", "-learner", "gam", "-scale", "smoke",
		"-cache", cache, "-save", filepath.Join(dir, "models"), "-quiet")
	out, err := run.CombinedOutput()
	if code := run.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("exit code %d (%v), want 1\n%s", code, err, out)
	}
	for _, want := range []string{"d8", "[20 32 48]", "[2 3 4 5]", "-train-nodes"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("error does not name %q:\n%s", want, out)
		}
	}
	if entries, err := os.ReadDir(cache); err == nil && len(entries) > 0 {
		t.Errorf("cache holds %d entries; no dataset should have been generated", len(entries))
	}

	spec, err := dataset.SpecByName("d8", dataset.ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTrainNodes(spec, dataset.ScaleSmoke, []int{20, 3}); err != nil {
		t.Errorf("one training node in the grid suffices: %v", err)
	}
}
