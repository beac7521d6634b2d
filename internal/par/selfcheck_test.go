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
	var calls []int
	rep, err := SelfCheck(path, "tool", 3, func(w int) ([]byte, any, error) {
		calls = append(calls, w)
		return []byte("same output"), map[string]int{"items": 7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(calls) != "[1 3]" {
		t.Errorf("legs called with %v, want the serial leg first with 1, then 3", calls)
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
	_, err := SelfCheck(path, "tool", 2, func(w int) ([]byte, any, error) {
		return []byte(fmt.Sprint(w)), nil, nil
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
		_, err := SelfCheck(path, "tool", 2, func(w int) ([]byte, any, error) {
			if w == failing {
				return nil, nil, boom
			}
			return []byte("out"), nil, nil
		})
		if !errors.Is(err, boom) || err == boom {
			t.Errorf("leg %d failing: got %v, want boom wrapped", failing, err)
		}
	}
}

func TestSelfCheckDefaultWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var last int
	rep, err := SelfCheck(path, "tool", 0, func(w int) ([]byte, any, error) {
		last = w
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); last != want || rep.Workers != want {
		t.Errorf("workers=0 ran the parallel leg at %d (report %d), want GOMAXPROCS=%d", last, rep.Workers, want)
	}
}
