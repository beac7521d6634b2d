package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// Exit codes of the mpicollvet driver.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding
	ExitError    = 2 // usage, load, or type-check failure; failed -benchout self-check
)

// CLIMain is the mpicollvet driver, factored out of cmd/mpicollvet so the
// tests can exercise flag handling, output formats, and exit codes without
// spawning a process. args are the command-line arguments after the program
// name; the return value is the process exit code.
func CLIMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mpicollvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	listOnly := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (- for stdout)")
	benchout := fs.String("benchout", "", "run serially and in parallel, verify byte-identity, write a speedup report here, and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
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
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "mpicollvet: %v\n", err)
		return ExitError
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "mpicollvet: %v\n", err)
			code = ExitError
		}
	}()
	analyzers := DefaultAnalyzers()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}

	if *benchout != "" {
		l, err := list(*dir, fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return ExitError
		}
		rep, err := par.SelfCheck(*benchout, "mpicollvet", l.benchLeg(analyzers))
		if err != nil {
			fmt.Fprintf(stderr, "mpicollvet: %v\n", err)
			return ExitError
		}
		fmt.Fprintf(stderr, "mpicollvet bench: %v\n", rep)
		return ExitClean
	}

	// Packages load and analyze on GOMAXPROCS workers; the output does not
	// depend on the count.
	pkgs, err := Load(*dir, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return ExitError
	}

	runner := &Runner{Analyzers: analyzers}
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

// benchLeg is the -benchout self-check's leg: load and analyze the listed
// packages, with the findings text as the output. The one `go list` stays
// outside the timed legs.
func (l *listing) benchLeg(analyzers []*Analyzer) func() ([]byte, any, error) {
	return func() ([]byte, any, error) {
		pkgs, err := l.load()
		if err != nil {
			return nil, nil, err
		}
		findings := (&Runner{Analyzers: analyzers}).Run(pkgs)
		var text bytes.Buffer
		for _, f := range findings {
			fmt.Fprintln(&text, f)
		}
		return text.Bytes(), map[string]int{"packages": len(l.targets), "findings": len(findings)}, nil
	}
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
