package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds smtlint's static call graph — the interprocedural
// backbone the hotalloc, keyflow, engineconfine and poolowner analyzers
// share. The graph is constructed over the already-type-checked
// first-party packages; standard-library callees have no nodes (calls
// into them simply end there, which is also how taint analyses
// "declassify" through crypto primitives).
//
// A call gets an edge when its callee resolves statically: a package
// function, a method called on a concrete receiver, a method expression,
// or an immediately invoked func literal. A method call through an
// interface value gets one edge per concrete first-party type that
// implements the interface (class-hierarchy style): every implementation
// might be the dynamic callee.
//
// A call through a func-typed value (variable, field, parameter, return
// value) gets no edge: signature matching over common shapes like func()
// degenerates to "everything". Reachability analyses instead *declare*
// the landing points of stored-func indirection (the event-dispatch
// surface, //smt:hotroot) as roots.

// Edge is one call edge: caller invokes callee at Site.
type Edge struct {
	Caller, Callee *Node
	Site           token.Pos
}

// Node is one function in the graph: a declared function or method
// (Fn != nil) or a func literal (Lit != nil).
type Node struct {
	Fn   *types.Func  // nil for func literals
	Lit  *ast.FuncLit // nil for declared functions
	Pkg  *Package
	Body *ast.BlockStmt
	Decl *ast.FuncDecl // nil for func literals

	Out []Edge

	// cold marks an //smt:coldpath-annotated declaration: hot-path
	// reachability stops at (and excludes) this node.
	cold bool
	// hotRoot marks an //smt:hotroot-annotated declaration: an
	// additional steady-state root (fixture packages and future
	// subsystems declare their own roots this way).
	hotRoot bool
	// coldSpans are source ranges inside Body treated as off the steady
	// state: if-blocks that end in a return or panic (guard clauses and
	// error paths).
	coldSpans []span
}

// String renders a stable human-readable name: the types.Func full name,
// or file:line for a literal.
func (n *Node) String() string {
	if n.Fn != nil {
		return n.Fn.FullName()
	}
	p := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("%s: func literal at %s:%d", n.Pkg.Path, p.Filename, p.Line)
}

// span is a half-open source range [from, to).
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.from && p < s.to }

// inColdSpan reports whether pos falls inside one of the node's cold
// regions.
func (n *Node) inColdSpan(pos token.Pos) bool {
	for _, s := range n.coldSpans {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// Graph is the program's call graph plus the directive state
// (coldpath/hotroot) the interprocedural rules consume.
type Graph struct {
	Prog  *Program
	Nodes []*Node // deterministic: package order, then source order

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	pkgs  []*Package // prog.Packages plus the optional fixture package

	// coldLines indexes line-level //smt:coldpath directives by file:
	// the directive's own line and the line below are cold (matching the
	// //smt:allow placement convention).
	coldLines map[string]map[int]bool
	// directiveErrs are malformed directives (a coldpath without a
	// reason), reported by the hotalloc pass for its own package.
	directiveErrs []directiveErr

	// typeNodes caches the named types declared across pkgs, for
	// interface-implementation resolution.
	namedTypes []types.Type
	implCache  map[implKey][]*Node

	// Lazily computed analysis layers (see summary.go / hotalloc.go).
	consume   map[*types.Func]uint64
	taint     map[*types.Func]*taintFacts
	taintHits []taintHit

	hotReached    map[*Node]bool
	hotOrigin     map[*Node]*Node
	hotUnresolved []string

	confReached map[*Node]bool
	confOrigin  map[*Node]*Node
}

// directiveErr is one malformed graph directive, surfaced as a finding
// by the analyzer that owns the directive's grammar.
type directiveErr struct {
	pkg string
	pos token.Pos
	msg string
}

// posString formats a position the way findings carry them.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

type implKey struct {
	iface  *types.Interface
	method string
}

// coldLine reports whether a line-level coldpath directive covers pos
// (directive on the same line or the line above).
func (g *Graph) coldLine(pos token.Position) bool {
	lines := g.coldLines[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// directives recognized by the graph layer.
const (
	coldPathDirective = "//smt:coldpath"
	hotRootDirective  = "//smt:hotroot"
)

// CallGraph returns the program's call graph, built once and shared by
// every graph-based analyzer. With extra non-nil (a fixture package
// loaded outside the program), a one-off graph spanning the program plus
// the fixture is built and memoized per fixture.
func (p *Program) CallGraph(extra *Package) *Graph {
	if extra == nil {
		p.cgOnce.Do(func() { p.cgVal = buildGraph(p, nil) })
		return p.cgVal
	}
	p.cgFixMu.Lock()
	defer p.cgFixMu.Unlock()
	if p.cgFix == nil {
		p.cgFix = make(map[*Package]*Graph)
	}
	g, ok := p.cgFix[extra]
	if !ok {
		g = buildGraph(p, extra)
		p.cgFix[extra] = g
	}
	return g
}

func buildGraph(prog *Program, extra *Package) *Graph {
	g := &Graph{
		Prog:      prog,
		byFn:      make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		coldLines: make(map[string]map[int]bool),
		implCache: make(map[implKey][]*Node),
	}
	g.pkgs = append(g.pkgs, prog.Packages...)
	if extra != nil {
		g.pkgs = append(g.pkgs, extra)
	}
	for _, pkg := range g.pkgs {
		g.collectNodes(pkg)
		g.collectColdLines(pkg)
		g.collectNamedTypes(pkg)
	}
	for _, n := range g.Nodes {
		g.buildEdges(n)
	}
	return g
}

// collectNodes creates one node per function declaration with a body and
// per func literal, in source order.
func (g *Graph) collectNodes(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(nd ast.Node) bool {
			switch d := nd.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					return true
				}
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					return true
				}
				n := &Node{Fn: fn, Pkg: pkg, Body: d.Body, Decl: d}
				n.cold, n.hotRoot = g.declDirectives(pkg, d.Doc)
				n.coldSpans = coldSpans(d.Body)
				g.Nodes = append(g.Nodes, n)
				g.byFn[fn] = n
			case *ast.FuncLit:
				n := &Node{Lit: d, Pkg: pkg, Body: d.Body}
				n.coldSpans = coldSpans(d.Body)
				g.Nodes = append(g.Nodes, n)
				g.byLit[d] = n
			}
			return true
		})
	}
}

// declDirectives parses //smt:coldpath and //smt:hotroot out of a
// declaration's doc comment. A doc-level coldpath needs no reason (the
// doc comment itself is the explanation and the directive is
// self-documentingly scoped to the whole function).
func (g *Graph) declDirectives(pkg *Package, doc *ast.CommentGroup) (cold, hotRoot bool) {
	if doc == nil {
		return false, false
	}
	for _, c := range doc.List {
		if directiveIs(c.Text, coldPathDirective) {
			cold = true
		}
		if directiveIs(c.Text, hotRootDirective) {
			hotRoot = true
		}
	}
	return cold, hotRoot
}

// directiveIs matches comment text against a directive prefix, rejecting
// longer directive names that merely share the prefix.
func directiveIs(text, directive string) bool {
	if !strings.HasPrefix(text, directive) {
		return false
	}
	rest := text[len(directive):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// collectColdLines indexes line-level //smt:coldpath directives. Inside
// a function body the directive must carry a reason (like //smt:allow):
// it exempts one allocation site, and the reason records why that site
// cannot run at steady state.
func (g *Graph) collectColdLines(pkg *Package) {
	for _, f := range pkg.Files {
		// Doc-level directives are consumed by declDirectives; exclude
		// their positions so they are not double-parsed as line cold.
		docLines := make(map[token.Pos]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docLines[c.Pos()] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !directiveIs(c.Text, coldPathDirective) || docLines[c.Pos()] {
					continue
				}
				rest := c.Text[len(coldPathDirective):]
				_, reason, found := strings.Cut(rest, "--")
				if !found || strings.TrimSpace(reason) == "" {
					g.directiveErrs = append(g.directiveErrs, directiveErr{
						pkg: pkg.Path,
						pos: c.Pos(),
						msg: fmt.Sprintf("coldpath directive %q needs a reason: //smt:coldpath -- <why this site cannot run at steady state>", c.Text),
					})
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				lines := g.coldLines[position.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					g.coldLines[position.Filename] = lines
				}
				lines[position.Line] = true
			}
		}
	}
}

// collectNamedTypes gathers package-scope named types for interface
// implementation lookups.
func (g *Graph) collectNamedTypes(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		g.namedTypes = append(g.namedTypes, tn.Type())
	}
}

// coldSpans marks guard-clause regions: the body of an if statement whose
// last statement is a return or a panic call. These are the error and
// early-exit branches a steady-state run does not take (the inverse —
// a hot early return — contains no further statements to misjudge).
func coldSpans(body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false // nested literals are their own nodes
		}
		ifs, ok := nd.(*ast.IfStmt)
		if !ok {
			return true
		}
		if blockEndsCold(ifs.Body) {
			spans = append(spans, span{from: ifs.Body.Pos(), to: ifs.Body.End()})
		}
		return true
	})
	return spans
}

// blockEndsCold reports whether a block's final statement is a return or
// panic.
func blockEndsCold(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// buildEdges resolves every call expression directly inside n's body
// (nested literals are separate nodes) into zero or more edges.
func (g *Graph) buildEdges(n *Node) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		g.resolveCall(n, info, call)
		return true
	})
}

// addEdge appends a caller→callee edge.
func (g *Graph) addEdge(caller, callee *Node, site token.Pos) {
	if callee == nil {
		return
	}
	caller.Out = append(caller.Out, Edge{Caller: caller, Callee: callee, Site: site})
}

// resolveCall adds the edges of one statically resolvable call; calls
// through func values, builtins and conversions add none. A call to an
// instantiated generic function or method edges to its generic
// declaration, the one body there is.
func (g *Graph) resolveCall(n *Node, info *types.Info, call *ast.CallExpr) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[f].(*types.Func); ok {
			g.addEdge(n, g.byFn[o.Origin()], call.Pos())
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			callee, ok := sel.Obj().(*types.Func)
			switch {
			case !ok: // a func-typed field
			case sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()):
				g.interfaceEdges(n, call, sel.Recv(), callee.Name())
			default: // a concrete method value or a method expression
				g.addEdge(n, g.byFn[callee.Origin()], call.Pos())
			}
			return
		}
		// Package-qualified reference.
		if o, ok := info.Uses[f.Sel].(*types.Func); ok {
			g.addEdge(n, g.byFn[o.Origin()], call.Pos())
		}
	case *ast.FuncLit:
		g.addEdge(n, g.byLit[f], call.Pos())
	}
}

// interfaceEdges adds one edge per first-party implementation of the
// called interface method.
func (g *Graph) interfaceEdges(n *Node, call *ast.CallExpr, recv types.Type, method string) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, impl := range g.implementations(iface, method) {
		g.addEdge(n, impl, call.Pos())
	}
}

// implementations returns the nodes of method `method` on every named
// first-party type (or its pointer) that implements iface.
func (g *Graph) implementations(iface *types.Interface, method string) []*Node {
	key := implKey{iface: iface, method: method}
	if impls, ok := g.implCache[key]; ok {
		return impls
	}
	var impls []*Node
	seen := make(map[*Node]bool)
	for _, t := range g.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.byFn[fn]; node != nil && !seen[node] {
			seen[node] = true
			impls = append(impls, node)
		}
	}
	g.implCache[key] = impls
	return impls
}

// ResolveRoots maps root specs to nodes. A spec is either a function
// full name as types.Func.FullName prints it — "pkgpath.F",
// "(*pkgpath.T).M", "(pkgpath.T).M" — or an interface method
// "(pkgpath.I).M", which expands to every first-party implementation.
// Unresolvable specs are returned separately so the owning analyzer can
// surface them (a silently dropped root would quietly disarm the rule).
func (g *Graph) ResolveRoots(specs []string) (roots []*Node, unresolved []string) {
	seen := make(map[*Node]bool)
	add := func(n *Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			roots = append(roots, n)
		}
	}
	for _, spec := range specs {
		if impls := g.interfaceSpecImpls(spec); impls != nil {
			for _, n := range impls {
				add(n)
			}
			continue
		}
		found := false
		for _, n := range g.Nodes {
			if n.Fn != nil && n.Fn.FullName() == spec {
				add(n)
				found = true
			}
		}
		if !found {
			unresolved = append(unresolved, spec)
		}
	}
	for _, n := range g.Nodes {
		if n.hotRoot {
			add(n)
		}
	}
	return roots, unresolved
}

// interfaceSpecImpls expands "(pkgpath.I).M" when I names an interface
// type; it returns nil (possibly-empty slices matter) when the spec is
// not an interface method.
func (g *Graph) interfaceSpecImpls(spec string) []*Node {
	if !strings.HasPrefix(spec, "(") || strings.HasPrefix(spec, "(*") {
		return nil
	}
	inner, method, ok := strings.Cut(spec[1:], ").")
	if !ok {
		return nil
	}
	dot := strings.LastIndex(inner, ".")
	if dot < 0 {
		return nil
	}
	pkgPath, typeName := inner[:dot], inner[dot+1:]
	for _, pkg := range g.pkgs {
		if pkg.Path != pkgPath || pkg.Types == nil {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return nil
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		impls := g.implementations(iface, method)
		if impls == nil {
			impls = []*Node{}
		}
		return impls
	}
	return nil
}

// Reachable computes the set of nodes reachable from roots over edges
// accepted by follow (nil follows everything). Roots themselves are
// included. origin records, for each reached node, the root it was first
// discovered from (for diagnostics).
func (g *Graph) Reachable(roots []*Node, follow func(Edge) bool) (reached map[*Node]bool, origin map[*Node]*Node) {
	reached = make(map[*Node]bool)
	origin = make(map[*Node]*Node)
	var queue []*Node
	for _, r := range roots {
		if !reached[r] {
			reached[r] = true
			origin[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if reached[e.Callee] {
				continue
			}
			reached[e.Callee] = true
			origin[e.Callee] = origin[n]
			queue = append(queue, e.Callee)
		}
	}
	return reached, origin
}
