package par

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Report is the one schema of every -benchout self-check file
// (BENCH_lint.json, BENCH_bench.json, BENCH_train.json).
type Report struct {
	Tool     string  `json:"tool"`
	Workers  int     `json:"workers"`
	Serial   LegTime `json:"serial"`
	Parallel LegTime `json:"parallel"`
	// Speedup is Serial.Seconds / Parallel.Seconds.
	Speedup float64 `json:"speedup"`
	// Identical reports whether the two legs produced byte-identical output.
	Identical bool `json:"identical"`
}

// LegTime is one leg's wall-clock time and whatever the tool reports about
// the work it did.
type LegTime struct {
	Seconds float64 `json:"seconds"`
	Detail  any     `json:"detail,omitempty"`
}

// String is the report's one-line summary for a CLI log.
func (r Report) String() string {
	return fmt.Sprintf("serial %.3gs, parallel %.3gs at %d workers -> %.2fx, identical=%v",
		r.Serial.Seconds, r.Parallel.Seconds, r.Workers, r.Speedup, r.Identical)
}

// AtProcs calls f with GOMAXPROCS set to procs and restores the previous
// setting when f returns or panics. GOMAXPROCS is the pipeline's one worker
// count, so this is how a caller runs work serially (procs = 1) or at a
// chosen parallelism. It changes a process-wide setting: callers must not
// overlap.
func AtProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// SelfCheck proves Run's promise for one tool: it calls leg at GOMAXPROCS=1,
// then at the caller's GOMAXPROCS, times each call, byte-compares the two
// outputs and writes the Report to path as indented JSON. It returns an
// error if a leg fails or the outputs differ; the report is written in the
// second case too. GOMAXPROCS is back at the caller's value on every return.
// The serial leg runs first, so any cache warm-up favours the parallel leg
// and biases the result against the speedup.
func SelfCheck(path, tool string, leg func() (out []byte, detail any, err error)) (Report, error) {
	workers := runtime.GOMAXPROCS(0)
	var (
		legs [2]LegTime
		outs [2][]byte
	)
	for i, w := range [2]int{1, workers} {
		var (
			detail any
			err    error
		)
		start := time.Now()
		AtProcs(w, func() { outs[i], detail, err = leg() })
		if err != nil {
			return Report{}, fmt.Errorf("self-check, %d-worker leg: %w", w, err)
		}
		legs[i] = LegTime{Seconds: time.Since(start).Seconds(), Detail: detail}
	}
	rep := Report{
		Tool:      tool,
		Workers:   workers,
		Serial:    legs[0],
		Parallel:  legs[1],
		Identical: bytes.Equal(outs[0], outs[1]),
	}
	if rep.Parallel.Seconds > 0 {
		rep.Speedup = rep.Serial.Seconds / rep.Parallel.Seconds
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return rep, err
	}
	if !rep.Identical {
		return rep, fmt.Errorf("self-check: %d-worker output differs from serial output", workers)
	}
	return rep, nil
}
