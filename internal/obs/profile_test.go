package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	stop, err := StartProfiles(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "second.pprof"), ""); err == nil {
		t.Error("a second concurrent CPU profile started")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile file: %v, %v", fi, err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Error("a CPU profile under a missing directory started")
	}
}

func TestStartMemProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles("", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile file: %v, %v", fi, err)
	}
	if _, err := StartProfiles("", filepath.Join(dir, "missing", "mem.pprof")); err == nil {
		t.Error("a heap profile under a missing directory started")
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile file %s: %v, %v", path, fi, err)
		}
	}

	// A failed heap-profile start must not leave the CPU profile running.
	missing := filepath.Join(dir, "missing", "mem.pprof")
	if _, err := StartProfiles(cpu, missing); err == nil {
		t.Error("a heap profile under a missing directory started")
	}
	stop, err = StartProfiles(cpu, "")
	if err != nil {
		t.Fatalf("CPU profile left running by a failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop: %v", err)
	}
}
