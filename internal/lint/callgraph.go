package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"

	"mpicollpred/internal/par"
)

// Function identity. The parallel loader type-checks packages in separate
// worker-local type universes, so *types.Func pointers for the same function
// differ between packages that both reference it. The graph therefore keys
// every node on the stable FullName string ("pkg/path.Fn",
// "(*pkg/path.T).Method"); closures get synthetic IDs derived from their
// lexical parent and position ("parent$line:col").
func funcName(f *types.Func) string {
	if o := f.Origin(); o != nil {
		f = o
	}
	return f.FullName()
}

// dynKey identifies an interface method for CHA resolution: method name plus
// the receiver-less signature rendered with full package paths, so the key
// matches across type-check universes.
func dynKey(name string, sig *types.Signature) string {
	if sig == nil {
		return name + "|?"
	}
	return name + "|" + types.TypeString(sig, func(p *types.Package) string { return p.Path() })
}

// FuncNode is one function in the call graph: a declared function or method,
// a closure, or a package's pseudo-node for file-level initializers.
type FuncNode struct {
	ID     string
	Pkg    string         // import path of the declaring package
	Body   *ast.BlockStmt // nil for bodyless declarations
	Direct Effects        // effects of this body's own statements
	Trans  Effects        // Direct plus transitive callee effects

	calls  map[string]bool // static callees + taken function values (IDs or external full names)
	spawns map[string]bool // go-statement targets: effects do not propagate
	dyn    map[string]bool // interface-dispatched callee keys
}

// Effects returns the function's transitive effect mask.
func (n *FuncNode) Effects() Effects { return n.Trans }

const (
	siteNone = iota
	siteStatic
	siteDynamic
	siteUnknown
)

// callSite is the resolved target of one call expression.
type callSite struct {
	kind   int
	target string // siteStatic: func ID; siteDynamic: dynKey
	name   string // display name for diagnostics
}

// Graph is the package-level call graph with propagated effects. It is
// immutable (and therefore safe for concurrent analyzer use) once built.
type Graph struct {
	funcs        map[string]*FuncNode
	methodsBySig map[string][]string // dynKey -> analyzed implementations
	dynFallback  map[string]Effects  // dynKey -> conservative stdlib-shape effects
	sites        map[*ast.CallExpr]callSite
	goTargets    map[*ast.GoStmt]string
}

func newGraph() *Graph {
	return &Graph{
		funcs:        map[string]*FuncNode{},
		methodsBySig: map[string][]string{},
		dynFallback:  map[string]Effects{},
		sites:        map[*ast.CallExpr]callSite{},
		goTargets:    map[*ast.GoStmt]string{},
	}
}

// BuildGraph constructs and finalizes the call graph over pkgs. Per-package
// construction is independent; the merge and the effect fixed point are
// deterministic regardless of build order.
func BuildGraph(pkgs []*Package) *Graph { return BuildGraphWorkers(pkgs, 1) }

// BuildGraphWorkers builds per-package subgraphs on a bounded worker pool,
// merges them in package order (deterministic) as par.Run commits them, and
// runs the effect fixed point.
func BuildGraphWorkers(pkgs []*Package, workers int) *Graph {
	g := newGraph()
	// Neither the build nor the merge can fail.
	_ = par.Run(len(pkgs), workers, nil,
		func(_, i int) (*Graph, error) { return buildPkgGraph(pkgs[i]), nil },
		func(_ int, pg *Graph) error {
			g.merge(pg)
			return nil
		})
	g.propagate()
	return g
}

// merge folds a per-package graph into g. Function IDs are globally unique
// (import paths disambiguate), so collisions only arise from re-analyzing a
// package; first writer wins.
func (g *Graph) merge(pg *Graph) {
	for id, n := range pg.funcs {
		if _, ok := g.funcs[id]; !ok {
			g.funcs[id] = n
		}
	}
	for k, impls := range pg.methodsBySig {
		g.methodsBySig[k] = append(g.methodsBySig[k], impls...)
	}
	for k, e := range pg.dynFallback {
		g.dynFallback[k] |= e
	}
	for c, s := range pg.sites {
		g.sites[c] = s
	}
	for gs, t := range pg.goTargets {
		g.goTargets[gs] = t
	}
}

// effectsOf resolves a callee ID: an analyzed node's transitive effects, or
// the curated stdlib root table for externals.
func (g *Graph) effectsOf(id string) Effects {
	if n, ok := g.funcs[id]; ok {
		return n.Trans
	}
	return externalEffects(id)
}

// propagate runs the effect fixed point: Trans(f) = Direct(f) joined with
// the effects of every static callee, taken function value, and possible
// dynamic implementation. Spawn edges are excluded — starting a goroutine
// does not block the spawner.
func (g *Graph) propagate() {
	ids := make([]string, 0, len(g.funcs))
	for id, n := range g.funcs {
		n.Trans = n.Direct
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			n := g.funcs[id]
			eff := n.Trans
			for c := range n.calls {
				eff |= g.effectsOf(c)
			}
			for d := range n.dyn {
				eff |= g.dynFallback[d]
				for _, impl := range g.methodsBySig[d] {
					if m, ok := g.funcs[impl]; ok {
						eff |= m.Trans
					}
				}
			}
			if eff != n.Trans {
				n.Trans = eff
				changed = true
			}
		}
	}
}

// Func returns the node with the given ID, if analyzed.
func (g *Graph) Func(id string) (*FuncNode, bool) {
	n, ok := g.funcs[id]
	return n, ok
}

// CallEffects returns the transitive effects of a call expression's resolved
// target(s) and a display name for diagnostics. Unresolvable calls (values
// of function type) conservatively report no effects — the framework favors
// precision so that every finding is actionable.
func (g *Graph) CallEffects(call *ast.CallExpr) (Effects, string) {
	s, ok := g.sites[call]
	if !ok {
		return 0, ""
	}
	switch s.kind {
	case siteStatic:
		return g.effectsOf(s.target), s.name
	case siteDynamic:
		eff := g.dynFallback[s.target]
		for _, impl := range g.methodsBySig[s.target] {
			if m, ok := g.funcs[impl]; ok {
				eff |= m.Trans
			}
		}
		return eff, s.name
	}
	return 0, s.name
}

// StaticCallee returns the resolved static target ID of a call, if any.
func (g *Graph) StaticCallee(call *ast.CallExpr) (string, bool) {
	s, ok := g.sites[call]
	if !ok || s.kind != siteStatic {
		return "", false
	}
	return s.target, true
}

// SpawnTarget returns the node of the function a go statement launches, when
// the target is a closure or a statically resolved function with source.
func (g *Graph) SpawnTarget(gs *ast.GoStmt) (*FuncNode, bool) {
	id, ok := g.goTargets[gs]
	if !ok {
		return nil, false
	}
	n, ok := g.funcs[id]
	if !ok || n.Body == nil {
		return nil, false
	}
	return n, true
}

// SpawnedBody returns the body of the function a go statement launches.
func (g *Graph) SpawnedBody(gs *ast.GoStmt) (*ast.BlockStmt, bool) {
	n, ok := g.SpawnTarget(gs)
	if !ok {
		return nil, false
	}
	return n.Body, true
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

// --- per-package construction ---

type gwalker struct {
	pkg     *Package
	pg      *Graph
	cur     *FuncNode
	callPos map[*ast.Ident]bool // identifiers in callee position: not ref edges
}

// buildPkgGraph walks one package's files, creating nodes for every declared
// function, method, and closure, and recording call/ref/spawn edges plus
// direct effects (channel ops, go statements).
func buildPkgGraph(pkg *Package) *Graph {
	w := &gwalker{pkg: pkg, pg: newGraph(), callPos: map[*ast.Ident]bool{}}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				id := funcName(obj)
				node := w.newFunc(id, d.Body)
				if rt := recvType(obj); rt != nil && !types.IsInterface(rt) {
					if sig, ok := obj.Type().(*types.Signature); ok {
						w.pg.methodsBySig[dynKey(obj.Name(), sig)] =
							append(w.pg.methodsBySig[dynKey(obj.Name(), sig)], id)
					}
				}
				if d.Body != nil {
					w.cur = node
					w.walk(d.Body)
					w.cur = nil
				}
			case *ast.GenDecl:
				// Package-level initializers run during package init; hang
				// their edges (e.g. a closure assigned to a var) off a
				// pseudo-node so they are not lost.
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						w.cur = w.newFunc(pkg.ImportPath+".init#vars", nil)
						w.walk(v)
						w.cur = nil
					}
				}
			}
		}
	}
	return w.pg
}

// recvType returns the receiver's type for a method object.
func recvType(f *types.Func) types.Type {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func (w *gwalker) newFunc(id string, body *ast.BlockStmt) *FuncNode {
	if n, ok := w.pg.funcs[id]; ok {
		return n
	}
	n := &FuncNode{
		ID: id, Pkg: w.pkg.ImportPath, Body: body,
		calls: map[string]bool{}, spawns: map[string]bool{}, dyn: map[string]bool{},
	}
	w.pg.funcs[id] = n
	return n
}

// litID derives the deterministic ID of a closure from its lexical parent
// and source position.
func (w *gwalker) litID(lit *ast.FuncLit) string {
	pos := w.pkg.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s$%d:%d", w.cur.ID, pos.Line, pos.Column)
}

func (w *gwalker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			id := w.litID(n)
			node := w.newFunc(id, n.Body)
			// Reaching here means the literal's value is taken (stored in a
			// variable, passed as an argument) or it is an IIFE — spawned
			// literals are intercepted by handleGo. Either way, record a
			// conservative may-call edge: whoever holds the value can invoke
			// it downstream of this function.
			w.cur.calls[id] = true
			prev := w.cur
			w.cur = node
			w.walk(n.Body)
			w.cur = prev
			return false
		case *ast.GoStmt:
			w.cur.Direct |= EffSpawnsGoroutine
			w.handleGo(n)
			return false
		case *ast.CallExpr:
			w.handleCall(n)
		case *ast.Ident:
			w.refEdge(n)
		case *ast.SendStmt:
			w.cur.Direct |= EffBlocksChan
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.cur.Direct |= EffBlocksChan
			}
		case *ast.SelectStmt:
			blocking := true
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					blocking = false // has a default clause
				}
			}
			if blocking {
				w.cur.Direct |= EffBlocksChan
			}
		case *ast.RangeStmt:
			if tv, ok := w.pkg.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.cur.Direct |= EffBlocksChan
				}
			}
		}
		return true
	})
}

// handleGo records a spawn edge (effects do not flow back) and walks the
// call's arguments and any closure body, which execute in this package.
func (w *gwalker) handleGo(g *ast.GoStmt) {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		id := w.litID(lit)
		w.pg.goTargets[g] = id
		w.cur.spawns[id] = true
		node := w.newFunc(id, lit.Body)
		prev := w.cur
		w.cur = node
		w.walk(lit.Body)
		w.cur = prev
	} else if s := w.resolveTarget(call); s.kind == siteStatic {
		w.pg.goTargets[g] = s.target
		w.cur.spawns[s.target] = true
	}
	for _, a := range call.Args {
		w.walk(a)
	}
}

func (w *gwalker) handleCall(call *ast.CallExpr) {
	s := w.resolveTarget(call)
	if s.kind == siteNone {
		return
	}
	w.pg.sites[call] = s
	switch s.kind {
	case siteStatic:
		w.cur.calls[s.target] = true
	case siteDynamic:
		w.cur.dyn[s.target] = true
	}
}

// resolveTarget classifies a call: static (named function, method on a
// concrete type, closure literal), dynamic (interface method — resolved CHA
// style against every analyzed implementation plus a conservative stdlib
// fallback), or unknown (value of function type). Type conversions and
// builtins resolve to siteNone.
func (w *gwalker) resolveTarget(call *ast.CallExpr) callSite {
	info := w.pkg.TypesInfo
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return callSite{kind: siteNone}
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		w.callPos[fn] = true
		switch o := info.Uses[fn].(type) {
		case *types.Func:
			return callSite{kind: siteStatic, target: funcName(o), name: funcName(o)}
		case *types.Builtin:
			return callSite{kind: siteNone}
		}
		return callSite{kind: siteUnknown, name: fn.Name}
	case *ast.SelectorExpr:
		w.callPos[fn.Sel] = true
		if sel, ok := info.Selections[fn]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return callSite{kind: siteUnknown, name: fn.Sel.Name} // func-typed field
			}
			sig, _ := f.Type().(*types.Signature)
			if types.IsInterface(sel.Recv()) {
				key := dynKey(f.Name(), sig)
				w.pg.dynFallback[key] |= dynFallbackEffects(f.Name(), sig)
				return callSite{kind: siteDynamic, target: key, name: "interface method " + f.Name()}
			}
			return callSite{kind: siteStatic, target: funcName(f), name: funcName(f)}
		}
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok { // qualified pkg.Fn
			return callSite{kind: siteStatic, target: funcName(f), name: funcName(f)}
		}
		return callSite{kind: siteUnknown, name: fn.Sel.Name}
	case *ast.FuncLit:
		id := w.litID(fn)
		return callSite{kind: siteStatic, target: id, name: "closure " + id}
	}
	return callSite{kind: siteUnknown}
}

// refEdge records a conservative "may call" edge when a function's value is
// taken outside call position (stored, passed as argument, bound as a method
// value): whoever ends up invoking it, its effects can occur downstream of
// this function.
func (w *gwalker) refEdge(id *ast.Ident) {
	if w.callPos[id] || w.cur == nil {
		return
	}
	if f, ok := w.pkg.TypesInfo.Uses[id].(*types.Func); ok {
		w.cur.calls[funcName(f)] = true
	}
}
