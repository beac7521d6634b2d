// Package lint is mpicollvet's analysis framework: a small, stdlib-only
// reimplementation of the parts of golang.org/x/tools/go/analysis this
// project needs. It loads packages with go/parser + go/types (export data
// supplied by `go list -export`), runs a suite of domain-specific analyzers
// over them, and reports findings.
//
// The analyzers encode the pipeline's determinism, numeric-safety, and
// metrics-hygiene invariants (DESIGN §8): artifacts must be byte-identical
// across runs, floating-point comparisons must be epsilon-aware, randomness
// must be explicitly seeded, simulated packages must not read the wall
// clock, writer errors must not be silently dropped, and panics are only
// allowed where a guardrail recovers them.
//
// A finding can be suppressed in source with a directive comment on the
// same line or the line directly above:
//
//	//mpicollvet:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"

	"mpicollpred/internal/par"
)

// An Analyzer is one named check. Run inspects a single package via the
// Pass and reports findings through it.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer protects.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass)
}

// A Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Graph is the whole-run call graph with propagated effects, shared
	// read-only by every pass. Nil when an analyzer is driven outside the
	// Runner; graph-based analyzers must tolerate that.
	Graph *Graph

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Finding is one reported violation.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// fill populates the flattened JSON fields from Pos.
func (f *Finding) fill() {
	f.File, f.Line, f.Col = f.Pos.Filename, f.Pos.Line, f.Pos.Column
}

// String renders the finding in the canonical file:line:col: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// ignoreDirective is the prefix of a suppression comment.
const ignoreDirective = "//mpicollvet:ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	analyzer string
	line     int
	file     string
}

// suppressionKey locates a directive for lookup.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// collectSuppressions parses every ignore directive in the package. A
// malformed directive (missing analyzer name or reason) is reported as a
// finding of the pseudo-analyzer "ignore" so that typos cannot silently
// disable a check.
func collectSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) (map[suppressionKey]bool, []Finding) {
	sups := map[suppressionKey]bool{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  "malformed directive: want //mpicollvet:ignore <analyzer> <reason>",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf("directive names unknown analyzer %q", name),
					})
					continue
				}
				sups[suppressionKey{pos.Filename, pos.Line, name}] = true
			}
		}
	}
	return sups, bad
}

// Runner applies a fixed suite of analyzers to loaded packages.
type Runner struct {
	Analyzers []*Analyzer
}

// Run builds the call graph over all packages, analyzes every package, and
// returns the surviving findings in canonical order: sorted by (file, line,
// column, analyzer, message) with exact duplicates collapsed. Packages are
// analyzed on GOMAXPROCS workers; the output is byte-identical at any
// count, because findings commit in load order before the sort. Findings on a
// line carrying (or directly below) a matching ignore directive are dropped.
func (r *Runner) Run(pkgs []*Package) []Finding {
	known := map[string]bool{}
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	graph := BuildGraph(pkgs)
	var out []Finding
	analyze := func(_, i int) ([]Finding, error) {
		pkg := pkgs[i]
		sups, bad := collectSuppressions(pkg.Fset, pkg.Files, known)
		kept := bad
		var raw []Finding
		for _, a := range r.Analyzers {
			pass := &Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Graph:     graph,
				analyzer:  a,
				findings:  &raw,
			}
			a.Run(pass)
		}
		for _, f := range raw {
			if sups[suppressionKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}] ||
				sups[suppressionKey{f.Pos.Filename, f.Pos.Line - 1, f.Analyzer}] {
				continue
			}
			kept = append(kept, f)
		}
		return kept, nil
	}
	// Neither analyze nor the commit can fail.
	_ = par.Run(len(pkgs), runtime.GOMAXPROCS(0), nil, analyze, func(_ int, fs []Finding) error {
		out = append(out, fs...)
		return nil
	})
	for i := range out {
		out[i].fill()
	}
	sortFindings(out)
	return dedupFindings(out)
}

// sortFindings orders findings canonically. The message is the final
// tiebreak so that analyzers iterating unordered containers (type-info maps)
// still produce byte-identical reports under any scheduling.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupFindings collapses exact duplicates in a sorted slice. Interprocedural
// checks can legitimately reach the same defect from two spawn sites; one
// report is enough.
func dedupFindings(out []Finding) []Finding {
	kept := out[:0]
	for i, f := range out {
		if i > 0 {
			p := out[i-1]
			if p.File == f.File && p.Line == f.Line && p.Col == f.Col &&
				p.Analyzer == f.Analyzer && p.Message == f.Message {
				continue
			}
		}
		kept = append(kept, f)
	}
	return kept
}

// pathMatches reports whether an import path matches pattern: exactly, as a
// path suffix, as a prefix, or as an interior segment sequence. Patterns are
// slash-separated import-path fragments like "internal/sim".
func pathMatches(path, pattern string) bool {
	return path == pattern ||
		strings.HasSuffix(path, "/"+pattern) ||
		strings.HasPrefix(path, pattern+"/") ||
		strings.Contains(path, "/"+pattern+"/")
}

// anyPathMatches reports whether path matches any of the patterns.
func anyPathMatches(path string, patterns []string) bool {
	for _, p := range patterns {
		if pathMatches(path, p) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
