package par

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readReport decodes the file SelfCheck wrote.
func readReport(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSelfCheckIdenticalLegs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var (
		calls []int
		rep   Report
		err   error
	)
	AtProcs(3, func() {
		rep, err = SelfCheck(path, "tool", func() ([]byte, any, error) {
			calls = append(calls, runtime.GOMAXPROCS(0))
			return []byte("same output"), map[string]int{"items": 7}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(calls) != "[1 3]" {
		t.Errorf("legs ran at GOMAXPROCS %v, want the serial leg first at 1, then 3", calls)
	}
	got := readReport(t, path)
	if !got.Identical || !rep.Identical {
		t.Error("identical legs reported as differing")
	}
	if got.Tool != "tool" || got.Workers != 3 || got.Serial.Seconds <= 0 || got.Parallel.Seconds <= 0 {
		t.Errorf("implausible report: %+v", got)
	}
	if want := got.Serial.Seconds / got.Parallel.Seconds; got.Speedup != want {
		t.Errorf("speedup %v, want serial/parallel = %v", got.Speedup, want)
	}
	if d, ok := got.Serial.Detail.(map[string]any); !ok || d["items"] != 7.0 {
		t.Errorf("serial detail %#v, want the leg's detail", got.Serial.Detail)
	}
}

func TestSelfCheckWorkerDependentOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var err error
	AtProcs(2, func() {
		_, err = SelfCheck(path, "tool", func() ([]byte, any, error) {
			return []byte(fmt.Sprint(runtime.GOMAXPROCS(0))), nil, nil
		})
	})
	if err == nil {
		t.Fatal("worker-dependent output passed the self-check")
	}
	if got := readReport(t, path); got.Identical {
		t.Errorf("report of differing legs says identical: %+v", got)
	}
}

func TestSelfCheckLegError(t *testing.T) {
	boom := errors.New("boom")
	for _, failing := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "bench.json")
		var err error
		AtProcs(2, func() {
			_, err = SelfCheck(path, "tool", func() ([]byte, any, error) {
				if runtime.GOMAXPROCS(0) == failing {
					return nil, nil, boom
				}
				return []byte("out"), nil, nil
			})
		})
		if !errors.Is(err, boom) || err == boom {
			t.Errorf("leg %d failing: got %v, want boom wrapped", failing, err)
		}
	}
}

func TestSelfCheckDefaultWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var last int
	rep, err := SelfCheck(path, "tool", func() ([]byte, any, error) {
		last = runtime.GOMAXPROCS(0)
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); last != want || rep.Workers != want {
		t.Errorf("parallel leg ran at %d (report %d), want the caller's GOMAXPROCS=%d", last, rep.Workers, want)
	}
}

// TestSelfCheckRestoresGOMAXPROCS: the serial leg sees GOMAXPROCS 1, the
// parallel leg the caller's value, and the caller's value is back after a
// passing, a failing or a differing run, and after AtProcs' f panics.
func TestSelfCheckRestoresGOMAXPROCS(t *testing.T) {
	const caller = 3
	boom := errors.New("boom")
	legs := map[string]func(procs int) ([]byte, any, error){
		"identical": func(int) ([]byte, any, error) { return []byte("out"), nil, nil },
		"serial fails": func(procs int) ([]byte, any, error) {
			if procs == 1 {
				return nil, nil, boom
			}
			return nil, nil, nil
		},
		"parallel fails": func(procs int) ([]byte, any, error) {
			if procs != 1 {
				return nil, nil, boom
			}
			return nil, nil, nil
		},
		"differs": func(procs int) ([]byte, any, error) { return []byte(fmt.Sprint(procs)), nil, nil },
	}
	for name, leg := range legs {
		var seen []int
		after := 0
		AtProcs(caller, func() {
			_, _ = SelfCheck(filepath.Join(t.TempDir(), "bench.json"), "tool", func() ([]byte, any, error) {
				seen = append(seen, runtime.GOMAXPROCS(0))
				return leg(runtime.GOMAXPROCS(0))
			})
			after = runtime.GOMAXPROCS(0)
		})
		if after != caller {
			t.Errorf("%s: GOMAXPROCS %d after SelfCheck, want the caller's %d", name, after, caller)
		}
		if seen[0] != 1 || (len(seen) > 1 && seen[1] != caller) {
			t.Errorf("%s: legs ran at GOMAXPROCS %v, want [1 %d]", name, seen, caller)
		}
	}
	before := runtime.GOMAXPROCS(0)
	func() {
		defer func() { _ = recover() }()
		AtProcs(before+1, func() { panic("leg panicked") })
	}()
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS %d after a panic inside AtProcs, want %d", got, before)
	}
}
