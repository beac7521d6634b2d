package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCPUProfileFlag builds the CLI, generates the smoke d1 dataset with
// -cpuprofile, and checks that the file is a non-empty pprof profile: a
// gzip stream holding the encoded profile.
func TestCPUProfileFlag(t *testing.T) { checkProfileFlag(t, "-cpuprofile") }

// TestMemProfileFlag is TestCPUProfileFlag for the heap profile that
// -memprofile writes at the end of the run.
func TestMemProfileFlag(t *testing.T) { checkProfileFlag(t, "-memprofile") }

func checkProfileFlag(t *testing.T, flag string) {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "mpicollbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(dir, "profile.pprof")
	run := exec.Command(bin, "-dataset", "d1", "-scale", "smoke", "-quiet",
		"-cache", filepath.Join(dir, "cache"), flag, prof)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("mpicollbench: %v\n%s", err, out)
	}

	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip-compressed: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reading profile: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("profile is empty")
	}
}

// TestBenchoutSmoke runs the -benchout self-check on the smoke d8 grid and
// checks that serial and parallel generation wrote identical CSV.
func TestBenchoutSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mpicollbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := filepath.Join(dir, "bench.json")
	run := exec.Command(bin, "-dataset", "d8", "-scale", "smoke", "-quiet", "-benchout", report)
	run.Env = append(os.Environ(), "GOMAXPROCS=2")
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("mpicollbench: %v\n%s", err, out)
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
				Samples int `json:"samples"`
			} `json:"detail"`
		} `json:"serial"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || rep.Tool != "mpicollbench" || rep.Workers != 2 || rep.Serial.Detail.Samples == 0 {
		t.Errorf("implausible report:\n%s", data)
	}
}
