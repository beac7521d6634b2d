package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"mpicollpred/internal/par"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listedPackage mirrors the fields of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct {
		Err string
	}
}

// listing is the result of the single `go list` invocation a load starts
// with: the analysis targets plus export-data locations for every
// dependency. It can be loaded more than once (the runtime benchmark loads
// serially and in parallel from the same listing).
type listing struct {
	exports map[string]string
	targets []listedPackage
}

// list resolves patterns (e.g. "./...") relative to dir with the go tool.
func list(dir string, patterns []string) (*listing, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	l := &listing{exports: map[string]string{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		l.targets = append(l.targets, p)
	}
	return l, nil
}

// load parses and type-checks every listed target from source, with up to
// workers packages in flight at once. The token.FileSet is shared (it locks
// internally); each worker owns its importer and types.Config, because the
// gc importer's cache is not safe for concurrent use. Resulting *types*
// object identities therefore differ between worker universes for the same
// dependency — which is why the call graph (callgraph.go) keys functions on
// FullName strings rather than object pointers. Package order and any error
// reported are independent of scheduling: par.Run commits in load order and
// the first error by index wins.
func (l *listing) load(workers int) ([]*Package, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	pkgs := make([]*Package, len(l.targets))
	confs := make([]*types.Config, workers)
	err := par.Run(len(l.targets), workers, nil,
		func(w, i int) (*Package, error) {
			if confs[w] == nil {
				confs[w] = &types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
			}
			return loadOne(fset, confs[w], l.targets[i])
		},
		func(i int, p *Package) error {
			pkgs[i] = p
			return nil
		})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// loadOne parses and type-checks a single package.
func loadOne(fset *token.FileSet, conf *types.Config, t listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// Load resolves patterns with the go tool, then parses and type-checks every
// matched package from source on GOMAXPROCS workers. Only non-test Go files
// are analyzed — the analyzers' invariants target production code, and the
// floateq rule explicitly exempts tests.
//
// Dependencies (including the standard library) are resolved from compiler
// export data produced by `go list -export`, so the loader needs no
// GOPATH-era package layout and no dependency beyond the go toolchain
// itself.
func Load(dir string, patterns []string) ([]*Package, error) {
	return LoadWorkers(dir, patterns, 0)
}

// LoadWorkers is Load with an explicit parallelism bound; workers <= 0 means
// GOMAXPROCS.
func LoadWorkers(dir string, patterns []string, workers int) ([]*Package, error) {
	l, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	return l.load(workers)
}
