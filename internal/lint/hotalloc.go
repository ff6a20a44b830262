package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer makes the steady-state allocation budget a static
// guarantee. The dynamic pin (TestSteadyStateAllocs) measures allocs per
// echo after warm-up; this rule rejects the cause: any heap-allocating
// construct reachable over the call graph from a steady-state root.
//
// Roots are the event-dispatch and data-path surfaces everything hot
// funnels through — sim.Action.Run implementations, netsim delivery,
// the codec Encode/Decode interface, record-layer seal/open, transport
// rx/tx — plus any declaration annotated //smt:hotroot. Reachability
// follows the call graph's direct and interface-dispatch edges; a
// callback reached only through a stored func value (the Engine's fn()
// dispatch of a prebuilt arrivalFn/deliverFn field) is rooted with
// //smt:hotroot instead.
//
// An allocation site is exempt when it provably cannot run at steady
// state:
//
//   - it sits inside a guard clause (an if-block ending in return or
//     panic) — error paths are cold by construction;
//   - its line (or the line above) carries //smt:coldpath -- <reason>,
//     the warm-up escape hatch for pool-refill sites;
//   - its whole function is doc-annotated //smt:coldpath, which also
//     cuts reachability through it.
//
// Recognized allocation kinds: make/new, &composite and slice/map
// literals, append outside the recognized scratch idiom (appending into
// field-backed or parameter-backed storage), map inserts (m[k] = v,
// m[k] op= v, m[k]++: any of them can grow the map; reads and delete
// cannot), capturing closures, fmt calls, string<->[]byte conversions,
// and explicit interface boxing of non-pointer values. A capturing
// closure handed to the alloc-free Engine.At/After forms is the common
// case: that is what the pooled PostAction form or a prebuilt func
// field is for. A &composite literal passed straight to a first-party
// parameter that provably never escapes its callee (see
// paramStaysLocal) stays in the caller's frame and is not flagged.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap allocation reachable from a steady-state root without //smt:coldpath -- <reason>",
	Run:  runHotAlloc,
}

// hotRootSpecs are the steady-state roots, by types.Func full name;
// interface methods expand to every first-party implementation.
var hotRootSpecs = []string{
	"(smt/internal/sim.Action).Run",
	"(*smt/internal/netsim.Network).Deliver",
	"(smt/internal/cpusim.Handler).HandlePacket",
	"(smt/internal/homa.Codec).Encode",
	"(smt/internal/homa.Codec).DecodeTo",
	"(*smt/internal/homa.Socket).Send",
	"(*smt/internal/tcpsim.Conn).SendMessage",
	"(smt/internal/tcpsim.Codec).EncodeMessage",
	"(smt/internal/tcpsim.Codec).DecodeStreamTo",
	"(smt/internal/tcpsim.Codec).Release",
	"(*smt/internal/tlsrec.AEAD).SealRecord",
	"(*smt/internal/tlsrec.AEAD).OpenRecord",
	"(*smt/internal/tlsrec.AEAD).OpenRecordTo",
	"(*smt/internal/tlsrec.AEAD).SealInPlace",
}

// hotSets computes (once) the hot reachable set and each hot node's
// originating root.
func (g *Graph) hotSets() (map[*Node]bool, map[*Node]*Node, []string) {
	if g.hotReached != nil {
		return g.hotReached, g.hotOrigin, g.hotUnresolved
	}
	roots, unresolved := g.ResolveRoots(hotRootSpecs)
	live := roots[:0:0]
	for _, r := range roots {
		if !r.cold {
			live = append(live, r)
		}
	}
	follow := func(e Edge) bool {
		if e.Callee.cold || e.Caller.inColdSpan(e.Site) {
			return false
		}
		return !g.coldLine(g.Prog.Fset.Position(e.Site))
	}
	g.hotReached, g.hotOrigin = g.Reachable(live, follow)
	g.hotUnresolved = unresolved
	return g.hotReached, g.hotOrigin, g.hotUnresolved
}

func runHotAlloc(pass *Pass) {
	g := pass.Pkg.prog.CallGraph(fixtureExtra(pass.Pkg))
	// Malformed //smt:coldpath directives in this package are findings:
	// a directive that silently fails to parse would silently exempt
	// nothing (or worse, be believed to).
	for _, de := range g.directiveErrs {
		if de.pkg == pass.Pkg.Path {
			pass.report(Finding{Rule: pass.Analyzer.Name, Pkg: de.pkg, Pos: posString(pass.Pkg.Fset, de.pos), Message: de.msg})
		}
	}
	reached, origin, unresolved := g.hotSets()
	// A root spec that resolves to nothing means the surface it names
	// was renamed away — the rule would be silently disarmed. Reported
	// against the lint package itself, where the spec list lives.
	if pass.Pkg.Path == "smt/internal/lint" {
		for _, spec := range unresolved {
			pass.report(Finding{
				Rule:    pass.Analyzer.Name,
				Pkg:     pass.Pkg.Path,
				Pos:     pass.Pkg.Path,
				Message: "hot root spec " + spec + " resolves to no function; update hotRootSpecs in hotalloc.go",
			})
		}
	}
	ha := &hotAlloc{pass: pass, graph: g}
	for _, n := range g.Nodes {
		if n.Pkg != pass.Pkg || !reached[n] {
			continue
		}
		ha.scan(n, origin[n])
	}
}

type hotAlloc struct {
	pass  *Pass
	graph *Graph
}

// scan reports every allocation site in n's own body (nested literals
// are separate nodes) that is not inside a cold region.
func (ha *hotAlloc) scan(n *Node, root *Node) {
	info := n.Pkg.Info
	scratch := scratchLocals(n, info)
	exempt := func(pos token.Pos) bool {
		return n.inColdSpan(pos) || ha.graph.coldLine(ha.graph.Prog.Fset.Position(pos))
	}
	via := funcDisplayName(root)
	local := ha.localArgs(n, info)
	flag := func(pos token.Pos, what string) {
		if exempt(pos) {
			return
		}
		ha.pass.Report(pos, "%s on the steady-state hot path (reachable from %s); move it off the data path or annotate //smt:coldpath -- <reason>", what, via)
	}
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch e := nd.(type) {
		case *ast.FuncLit:
			if e == n.Lit {
				return true
			}
			if capt := captured(info, e); capt != "" {
				flag(e.Pos(), "capturing closure (captures "+capt+") allocates")
			}
			return false
		case *ast.CallExpr:
			ha.scanCall(e, n, info, scratch, flag)
		case *ast.UnaryExpr:
			if _, ok := e.X.(*ast.CompositeLit); ok && !local[e] {
				flag(e.Pos(), "heap-escaping composite literal")
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(e.Pos(), "slice/map literal allocates")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if isMapIndex(info, lhs) {
					flag(lhs.Pos(), "map insert can grow the map, which allocates")
				}
			}
		case *ast.IncDecStmt:
			if isMapIndex(info, e.X) {
				flag(e.X.Pos(), "map insert can grow the map, which allocates")
			}
		}
		return true
	})
}

// isMapIndex reports whether e is an index expression on a map-typed
// operand (m[k]); as an assignment target it inserts or updates.
func isMapIndex(info *types.Info, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// localArgs collects the &T{...} literals in n's own body that are passed
// straight to a parameter its statically resolved callee never lets
// escape. Go's escape analysis keeps such a literal in the caller's
// frame, so it allocates nothing.
func (ha *hotAlloc) localArgs(n *Node, info *types.Info) map[*ast.UnaryExpr]bool {
	local := make(map[*ast.UnaryExpr]bool)
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := ha.graph.staticCallee(info, call)
		for i, arg := range call.Args {
			u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			if _, ok := u.X.(*ast.CompositeLit); ok && callee != nil && paramStaysLocal(callee, i) {
				local[u] = true
			}
		}
		return true
	})
	return local
}

// staticCallee returns the bodied first-party function a call invokes
// directly, with call.Args matching its parameters (a function or a
// concrete method), or nil for calls through interfaces, func values,
// method expressions and literals.
func (g *Graph) staticCallee(info *types.Info, call *ast.CallExpr) *Node {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = info.Uses[f.Sel].(*types.Func)
		}
	}
	if n := g.byFn[fn]; n != nil && n.Decl != nil && n.Body != nil {
		return n
	}
	return nil
}

// paramStaysLocal reports whether parameter i of fn provably never
// escapes it: outside nested function literals, every use either
// compares it, dereferences it into an assignment's value (x = *p), or
// reads or writes a field through it whose type is neither an array nor
// a struct (so no pointer into *p can be formed, and &p.f is rejected).
// That is a conservative subset of the compiler's escape analysis.
func paramStaysLocal(fn *Node, i int) bool {
	info := fn.Pkg.Info
	var param types.Object
	idx := 0
	for _, f := range fn.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			idx++
			continue
		}
		for _, name := range f.Names {
			if idx == i {
				if _, variadic := f.Type.(*ast.Ellipsis); !variadic {
					param = info.Defs[name]
				}
			}
			idx++
		}
	}
	if param == nil {
		return false
	}
	stays := true
	var stack []ast.Node // ancestors of the node being visited
	ast.Inspect(fn.Body, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !stays {
			return false
		}
		if id, ok := nd.(*ast.Ident); ok && info.Uses[id] == param {
			stays = localUse(info, id, stack)
			return false
		}
		stack = append(stack, nd)
		return true
	})
	return stays
}

// localUse reports whether one use of a pointer parameter, with its
// ancestors in stack, is one of paramStaysLocal's non-escaping forms.
func localUse(info *types.Info, id *ast.Ident, stack []ast.Node) bool {
	for _, a := range stack {
		if _, ok := a.(*ast.FuncLit); ok {
			return false // captured by a closure
		}
	}
	parent := stack[len(stack)-1]
	var grand ast.Node
	if len(stack) > 1 {
		grand = stack[len(stack)-2]
	}
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		return p.Op == token.EQL || p.Op == token.NEQ
	case *ast.StarExpr:
		as, ok := grand.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, r := range as.Rhs {
			if r == p {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		sel := info.Selections[p]
		if sel == nil || sel.Kind() != types.FieldVal {
			return false // a method call may keep its receiver
		}
		switch sel.Type().Underlying().(type) {
		case *types.Array, *types.Struct:
			return false
		}
		u, ok := grand.(*ast.UnaryExpr)
		return !ok || u.Op != token.AND
	}
	return false
}

// scanCall classifies one call expression's allocation behavior.
func (ha *hotAlloc) scanCall(call *ast.CallExpr, n *Node, info *types.Info, scratch map[types.Object]bool, flag func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)
	// Conversions: string<->[]byte copies; boxing into an interface.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		argT := info.Types[call.Args[0]].Type
		if argT == nil {
			return
		}
		dst, src := tv.Type.Underlying(), argT.Underlying()
		if isByteSlice(dst) && isString(src) || isString(dst) && isByteSlice(src) {
			flag(call.Pos(), "string conversion allocates")
		} else if types.IsInterface(dst) && !types.IsInterface(src) {
			if _, isPtr := src.(*types.Pointer); !isPtr {
				flag(call.Pos(), "interface conversion boxes a value")
			}
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !scratchExpr(call.Args[0], info, scratch) {
					flag(call.Pos(), "append into non-scratch storage allocates")
				}
			}
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			flag(call.Pos(), "fmt."+fn.Name()+" allocates (boxing + formatting)")
		}
	}
}

// captured returns the name of one variable the literal captures from
// an enclosing function scope, or "" if it is capture-free. Package-
// level objects (globals, funcs, consts) do not force a closure
// allocation and are not captures.
func captured(info *types.Info, lit *ast.FuncLit) string {
	// Variables declared inside the literal (params, locals).
	inside := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	var capt string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capt != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || inside[v] || v.IsField() {
			return true
		}
		// Package-level vars live in the package scope: referencing one
		// does not capture. Anything else var-like used here but declared
		// outside the literal is a capture (locals, params, receivers,
		// range vars of the enclosing function).
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		capt = v.Name()
		return false
	})
	return capt
}

// scratchLocals infers the function's scratch slice variables: locals
// whose storage is rooted in a field, a parameter, or another scratch
// value — the reuse idiom (out := c.decBuf[:0]; out = append(out, ...))
// that amortizes to zero allocations.
func scratchLocals(n *Node, info *types.Info) map[types.Object]bool {
	scratch := make(map[types.Object]bool)
	if n.Decl != nil && n.Decl.Type.Params != nil {
		for _, f := range n.Decl.Type.Params.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					scratch[o] = true
				}
			}
		}
		if n.Decl.Recv != nil {
			for _, f := range n.Decl.Recv.List {
				for _, name := range f.Names {
					if o := info.Defs[name]; o != nil {
						scratch[o] = true
					}
				}
			}
		}
	}
	mark := func(id *ast.Ident, rhs ast.Expr) bool {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || scratch[obj] || !scratchExpr(rhs, info, scratch) {
			return false
		}
		scratch[obj] = true
		return true
	}
	for i := 0; i < 4; i++ { // chains are short; a few rounds saturate
		changed := false
		ast.Inspect(n.Body, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
				return false
			}
			switch s := nd.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for j, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && mark(id, s.Rhs[j]) {
						changed = true
					}
				}
			case *ast.ValueSpec: // var out = c.buf[:0] declares scratch too
				for j, name := range s.Names {
					if j < len(s.Values) && mark(name, s.Values[j]) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return scratch
}

// scratchExpr reports whether e denotes storage the function does not
// own fresh: a struct field, an element of field-backed storage, a
// parameter, an already-scratch local, or a call rearranging scratch
// arguments (grow(c.buf, n)).
func scratchExpr(e ast.Expr, info *types.Info, scratch map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return obj != nil && scratch[obj]
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			return true
		}
		return false
	case *ast.SliceExpr:
		return scratchExpr(x.X, info, scratch)
	case *ast.IndexExpr:
		return scratchExpr(x.X, info, scratch)
	case *ast.StarExpr:
		return scratchExpr(x.X, info, scratch)
	case *ast.CallExpr:
		for _, a := range x.Args {
			if scratchExpr(a, info, scratch) {
				return true
			}
		}
		return false
	}
	return false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
