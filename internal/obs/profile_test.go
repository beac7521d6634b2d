package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "second.pprof")); err == nil {
		t.Error("a second concurrent CPU profile started")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile file: %v, %v", fi, err)
	}

	stop, err = StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop: %v", err)
	}
}

func TestStartMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	stop, err := StartMemProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile file: %v, %v", fi, err)
	}
	if _, err := StartMemProfile(filepath.Join(t.TempDir(), "missing", "mem.pprof")); err == nil {
		t.Error("a heap profile under a missing directory started")
	}

	stop, err = StartMemProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("no-op stop: %v", err)
	}
}
