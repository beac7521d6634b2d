package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Exit codes of the mpicollvet driver.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding
	ExitError    = 2 // usage, load, or type-check failure; failed bench gate
)

// CLIMain is the mpicollvet driver, factored out of cmd/mpicollvet so the
// tests can exercise flag handling, output formats, and exit codes without
// spawning a process. args are the command-line arguments after the program
// name; the return value is the process exit code.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpicollvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	workers := fs.Int("workers", 0, "concurrent package load/analysis (0 = GOMAXPROCS)")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (- for stdout)")
	benchout := fs.String("benchout", "", "benchmark serial vs parallel runner, write JSON to this file, and exit")
	minSpeedup := fs.Float64("min-speedup", 0, "with -benchout: fail (exit 2) if parallel/serial speedup is below this")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpicollvet [flags] [packages]\n\n"+
			"Runs the repository's domain-specific static analyzers over the\n"+
			"named package patterns (default ./...). Findings are reported as\n"+
			"file:line:col: [analyzer] message; suppress one with a\n"+
			"//mpicollvet:ignore <analyzer> <reason> comment on the same line\n"+
			"or the line above. Exit status: %d clean, %d findings, %d error.\n\nFlags:\n",
			ExitClean, ExitFindings, ExitError)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	analyzers := DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}

	if *benchout != "" {
		return runBench(*dir, fs.Args(), analyzers, *benchout, *minSpeedup, *workers, stderr)
	}

	pkgs, err := LoadWorkers(*dir, fs.Args(), *workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}

	runner := &Runner{Analyzers: analyzers, Workers: *workers}
	findings := runner.Run(pkgs)
	relativize(findings)

	if *sarifOut != "" {
		w := stdout
		var f *os.File
		if *sarifOut != "-" {
			var err error
			if f, err = os.Create(*sarifOut); err != nil {
				fmt.Fprintln(stderr, err)
				return ExitError
			}
			w = f
		}
		err := WriteSARIF(w, analyzers, findings)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return ExitError
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return ExitError
		}
	} else if *sarifOut != "-" {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "mpicollvet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// BenchResult is the BENCH_lint.json schema: the PR-5 convention of a small
// machine-readable perf artifact with an explicit gate.
type BenchResult struct {
	Targets          int     `json:"targets"`
	Workers          int     `json:"workers"`
	SerialSeconds    float64 `json:"serial_seconds"`
	ParallelSeconds  float64 `json:"parallel_seconds"`
	Speedup          float64 `json:"speedup"`
	Findings         int     `json:"findings"`
	OutputsIdentical bool    `json:"outputs_identical"`
	MinSpeedup       float64 `json:"min_speedup"`
}

// runBench times the full load+analyze pipeline serially and at the
// requested worker count from one shared `go list` invocation, verifies the
// outputs are byte-identical, and writes the JSON artifact. The serial leg
// runs first so its page-cache warmup benefits the parallel leg — the bias
// works against the speedup gate, not for it.
func runBench(dir string, patterns []string, analyzers []*Analyzer, outPath string, minSpeedup float64, workers int, stderr io.Writer) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l, err := list(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	leg := func(w int) (string, int, time.Duration, error) {
		start := time.Now()
		pkgs, err := l.load(w)
		if err != nil {
			return "", 0, 0, err
		}
		runner := &Runner{Analyzers: analyzers, Workers: w}
		findings := runner.Run(pkgs)
		elapsed := time.Since(start)
		text := ""
		for _, f := range findings {
			text += f.String() + "\n"
		}
		return text, len(findings), elapsed, nil
	}
	serialOut, nFindings, serialDur, err := leg(1)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	parallelOut, _, parallelDur, err := leg(workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	res := BenchResult{
		Targets:          len(l.targets),
		Workers:          workers,
		SerialSeconds:    serialDur.Seconds(),
		ParallelSeconds:  parallelDur.Seconds(),
		Speedup:          serialDur.Seconds() / parallelDur.Seconds(),
		Findings:         nFindings,
		OutputsIdentical: serialOut == parallelOut,
		MinSpeedup:       minSpeedup,
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}
	fmt.Fprintf(stderr, "mpicollvet bench: %d pkgs, serial %.2fs, parallel(%d) %.2fs, speedup %.2fx, identical=%v\n",
		res.Targets, res.SerialSeconds, res.Workers, res.ParallelSeconds, res.Speedup, res.OutputsIdentical)
	if !res.OutputsIdentical {
		fmt.Fprintln(stderr, "mpicollvet bench: FAIL — parallel output differs from serial")
		return ExitError
	}
	if minSpeedup > 0 && res.Speedup < minSpeedup {
		fmt.Fprintf(stderr, "mpicollvet bench: FAIL — speedup %.2fx below gate %.2fx\n", res.Speedup, minSpeedup)
		return ExitError
	}
	return ExitClean
}

// relativize rewrites absolute finding paths relative to the working
// directory for readable, machine-independent reports.
func relativize(findings []Finding) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i, f := range findings {
		if rel, err := filepath.Rel(wd, f.File); err == nil && len(rel) < len(f.File) {
			findings[i].File = rel
		}
	}
}

// ReadBenchFile loads a -benchout artifact (BENCH_lint.json).
func ReadBenchFile(path string) (*BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench file %s: %v", path, err)
	}
	return &r, nil
}
