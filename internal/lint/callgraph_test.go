package lint

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mpicollpred/internal/par"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestCallGraphGolden pins the graph layer's externally observable behavior
// — node set, edges, dynamic resolution, and propagated effect labels — to a
// golden dump. Analyzer precision rests on this layer; run with -update to
// regenerate after a deliberate change.
func TestCallGraphGolden(t *testing.T) {
	pkgs, err := Load(".", []string{"./testdata/src/callgraph"})
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	g := BuildGraph(pkgs)
	var buf bytes.Buffer
	g.Dump(&buf, pkgs[0].ImportPath)

	goldenPath := filepath.Join("testdata", "callgraph.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("call-graph dump diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCallGraphEffects spot-checks the propagated labels the golden encodes,
// with readable failures when a single label regresses.
func TestCallGraphEffects(t *testing.T) {
	pkgs, err := Load(".", []string{"./testdata/src/callgraph"})
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	g := BuildGraph(pkgs)
	path := pkgs[0].ImportPath
	cases := []struct {
		fn   string
		want Effects
	}{
		{path + ".Chain", EffBlocksIO},                  // two-hop static chain
		{path + ".Deliver", EffBlocksIO},                // CHA: FileSink.Put blocks
		{"(*" + path + ".MemSink).Put", 0},              // memory-only impl
		{path + ".TakeValue", EffBlocksIO},              // method value ref edge
		{path + ".Clock", EffWallClock},                 // clock root
		{path + ".Spawn", EffSpawnsGoroutine},           // spawn bit, no chan leak
		{path + ".Closures", EffBlocksChan},             // IIFE + nested closure
		{path + ".CopyStream", EffBlocksIO},             // io.Copy root
		{path + ".worker", EffBlocksChan | EffBlocksIO}, // range over chan + Deliver
	}
	for _, tc := range cases {
		n, ok := g.Func(tc.fn)
		if !ok {
			t.Errorf("function %s missing from graph", tc.fn)
			continue
		}
		if n.Effects() != tc.want {
			t.Errorf("%s effects = %s, want %s", tc.fn, n.Effects(), tc.want)
		}
	}
}

// TestGraphDumpDeterministic builds the graph twice — at GOMAXPROCS 1 and 4 —
// and requires byte-identical dumps: the graph is the substrate every
// analyzer's determinism rests on.
func TestGraphDumpDeterministic(t *testing.T) {
	pkgs, err := Load(".", []string{"./testdata/src/callgraph"})
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	var a, b bytes.Buffer
	par.AtProcs(1, func() { BuildGraph(pkgs).Dump(&a, pkgs[0].ImportPath) })
	par.AtProcs(4, func() { BuildGraph(pkgs).Dump(&b, pkgs[0].ImportPath) })
	if a.String() != b.String() {
		t.Errorf("serial and parallel graph dumps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "dyn:") {
		t.Errorf("dump lacks dynamic-dispatch records; fixture coverage lost:\n%s", a.String())
	}
}

// Dump writes a deterministic text rendering of the subgraph declared in
// pkgPath — the golden-test surface for the graph layer. Occurrences of the
// package path are shortened to "pkg" for readable, location-independent
// goldens.
func (g *Graph) Dump(w io.Writer, pkgPath string) {
	short := func(s string) string { return strings.ReplaceAll(s, pkgPath, "pkg") }
	ids := make([]string, 0, len(g.funcs))
	for id, n := range g.funcs {
		if n.Pkg == pkgPath {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := g.funcs[id]
		fmt.Fprintf(w, "%s\n  direct: %s\n  effects: %s\n", short(id), n.Direct, n.Trans)
		if len(n.calls) > 0 {
			fmt.Fprintf(w, "  calls: %s\n", short(joinSorted(n.calls)))
		}
		if len(n.spawns) > 0 {
			fmt.Fprintf(w, "  spawns: %s\n", short(joinSorted(n.spawns)))
		}
		if len(n.dyn) > 0 {
			keys := make([]string, 0, len(n.dyn))
			for k := range n.dyn {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				impls := append([]string(nil), g.methodsBySig[k]...)
				sort.Strings(impls)
				fmt.Fprintf(w, "  dyn: %s -> [%s] ~%s\n",
					short(k), short(strings.Join(impls, ", ")), g.dynFallback[k])
			}
		}
	}
}

func joinSorted(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
