package lint

import (
	"go/ast"
	"go/types"
)

// EngineConfineAnalyzer enforces the aliasing precondition for the
// ROADMAP's sharded-engine parallelism: code that runs under a
// sim.Engine — event actions, scheduled closures, delivery and dispatch
// paths — must not write package-level state. Two engines stepping in
// parallel (the runner's worker pool today, intra-point sharding
// tomorrow) would race on it, and even the serial runner's
// serial==parallel byte-identical guarantee dies the moment one world's
// run order leaks into another world's reads.
//
// Roots are the steady-state dispatch surfaces (shared with hotalloc)
// plus everything handed to a scheduling call — Engine.At/After/
// PostAction/PostActionAfter/ResetAt/ResetAfter,
// Resource.Acquire/AcquireAction, cpusim's RunApp/RunSoftirq and
// Network.Attach — whether as a func literal or a named function or
// method value. From those roots the rule follows direct and interface
// edges and flags assignments and ++/-- on variables declared at
// package scope. Reads are fine (immutable tables); sync.Once-guarded
// setup belongs in constructors, not under the engine.
var EngineConfineAnalyzer = &Analyzer{
	Name: "engineconfine",
	Doc:  "engine-confined code (event actions, scheduled closures) must not write package-level state",
	Run:  runEngineConfine,
}

// schedulingSinks are the call targets whose func-valued arguments run
// under an engine, by types.Func full name.
var schedulingSinks = map[string]bool{
	"(*smt/internal/sim.Engine).At":              true,
	"(*smt/internal/sim.Engine).After":           true,
	"(*smt/internal/sim.Engine).PostAction":      true,
	"(*smt/internal/sim.Engine).PostActionAfter": true,
	"(*smt/internal/sim.Engine).ResetAt":         true,
	"(*smt/internal/sim.Engine).ResetAfter":      true,
	"(*smt/internal/sim.Resource).Acquire":       true,
	"(*smt/internal/sim.Resource).AcquireAction": true,
	"(*smt/internal/cpusim.Host).RunApp":         true,
	"(*smt/internal/cpusim.Host).RunSoftirq":     true,
	"(*smt/internal/netsim.Network).Attach":      true,
}

// confinedSets computes (once) the engine-confined reachable set and
// each node's originating root.
func (g *Graph) confinedSets() (map[*Node]bool, map[*Node]*Node) {
	if g.confReached != nil {
		return g.confReached, g.confOrigin
	}
	roots, _ := g.ResolveRoots(hotRootSpecs)
	seen := make(map[*Node]bool)
	for _, r := range roots {
		seen[r] = true
	}
	// Every func value handed to a scheduling call is a root: it will
	// run under the engine that owns the scheduler.
	for _, n := range g.Nodes {
		info := n.Pkg.Info
		ast.Inspect(n.Body, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
				return false
			}
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !schedulingSinks[fn.FullName()] {
				return true
			}
			for _, arg := range call.Args {
				for _, tgt := range g.funcValueArg(n, arg) {
					if !seen[tgt] {
						seen[tgt] = true
						roots = append(roots, tgt)
					}
				}
			}
			return true
		})
	}
	g.confReached, g.confOrigin = g.Reachable(roots, nil)
	return g.confReached, g.confOrigin
}

// funcValueArg resolves a scheduling-call argument to the nodes that
// will execute: a func literal, a referenced function, a method value,
// or a concrete Action implementation.
func (g *Graph) funcValueArg(n *Node, arg ast.Expr) []*Node {
	info := n.Pkg.Info
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if tgt := g.byLit[a]; tgt != nil {
			return []*Node{tgt}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[a].(*types.Func); ok {
			if tgt := g.byFn[fn]; tgt != nil {
				return []*Node{tgt}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
			if tgt := g.byFn[fn]; tgt != nil {
				return []*Node{tgt}
			}
		}
	}
	// An expression of a concrete type implementing sim.Action: its Run
	// method executes. Interface-typed args are covered by the Action
	// root spec already.
	if tv, ok := info.Types[arg]; ok && tv.Type != nil && !types.IsInterface(tv.Type) {
		if obj, _, _ := types.LookupFieldOrMethod(tv.Type, true, nil, "Run"); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				if tgt := g.byFn[fn]; tgt != nil {
					return []*Node{tgt}
				}
			}
		}
	}
	return nil
}

func runEngineConfine(pass *Pass) {
	g := pass.Pkg.prog.CallGraph(fixtureExtra(pass.Pkg))
	reached, origin := g.confinedSets()
	for _, n := range g.Nodes {
		if n.Pkg != pass.Pkg || !reached[n] {
			continue
		}
		scanGlobalWrites(pass, n, origin[n])
	}
}

// scanGlobalWrites flags writes to package-scope variables in n's own
// body.
func scanGlobalWrites(pass *Pass, n *Node, root *Node) {
	info := n.Pkg.Info
	via := funcDisplayName(root)
	flagIfGlobal := func(lhs ast.Expr) {
		obj := lvalueRoot(info, lhs)
		if obj == nil {
			return
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return
		}
		if v.Parent() != v.Pkg().Scope() {
			return
		}
		pass.Report(lhs.Pos(), "package-level variable %q written from engine-confined code (reachable from %s); state under an engine must hang off the engine's own world", v.Name(), via)
	}
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		switch s := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				flagIfGlobal(lhs)
			}
		case *ast.IncDecStmt:
			flagIfGlobal(s.X)
		}
		return true
	})
}

// lvalueRoot unwraps an assignment target to the object it is rooted
// at: selectors, indexing, derefs and parens all resolve to the base
// identifier.
func lvalueRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			// A qualified package-level var (pkg.Var) resolves through
			// Sel; a field access recurses into X.
			if sel := info.Selections[x]; sel == nil {
				if o := info.Uses[x.Sel]; o != nil {
					return o
				}
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
