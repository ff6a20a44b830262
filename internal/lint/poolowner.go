package lint

import (
	"go/ast"
	"go/types"
)

// PoolOwnerAnalyzer enforces the pooled-packet ownership rules from
// PR 5: a *wire.Packet obtained from a pool (PacketPool.Get, or the
// NIC/Network AcquirePacket entry points) is owned by the caller and
// must, on every path through the acquiring function, either
//
//   - reach pkt.Release(),
//   - be handed to a consuming call — one whose callee provably consumes
//     that packet parameter on every path, inferred interprocedurally
//     from call-graph summaries (see Graph.PacketConsumption),
//   - or escape in a way the next owner is responsible for: returned,
//     stored into a struct field / slice / map / channel, captured by a
//     closure, or bound into a composite literal.
//
// Passing a packet to any other call does NOT count as a transfer — in
// particular a call through an interface method or a func-typed field,
// which has no body to infer from. The dynamic complement is
// PacketPool.OutstandingPackets, which only notices a leak when a test
// drains that specific world to quiescence.
//
// The per-acquisition check is path-sensitive over the AST (if/else,
// switch, loops, early returns, defers). It is deliberately permissive
// where it cannot see — aliases and reassignment stop tracking — so
// every report is a real unconsumed path.
var PoolOwnerAnalyzer = &Analyzer{
	Name: "poolowner",
	Doc:  "a pooled wire.Packet must reach Release or a consuming call on every path of the acquiring function",
	Run:  runPoolOwner,
}

// packetSources are the pool entry points whose results the analyzer
// tracks, by types.Func.FullName.
var packetSources = map[string]bool{
	"(*smt/internal/wire.PacketPool).Get":          true,
	"(*smt/internal/netsim.Network).AcquirePacket": true,
	"(*smt/internal/nicsim.NIC).AcquirePacket":     true,
}

func runPoolOwner(pass *Pass) {
	g := pass.Pkg.prog.CallGraph(fixtureExtra(pass.Pkg))
	po := &poolOwner{pass: pass, info: pass.Pkg.Info, consume: g.PacketConsumption()}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					po.checkUnit(n.Body)
				}
			case *ast.FuncLit:
				po.checkUnit(n.Body)
			}
			return true
		})
	}
}

// fixtureExtra returns pkg when it is a fixture loaded outside the
// program's package list (so the call graph spans it too).
func fixtureExtra(pkg *Package) *Package {
	for _, p := range pkg.prog.Packages {
		if p == pkg {
			return nil
		}
	}
	return pkg
}

// flowResult is the outcome of symbolically executing a statement (or
// list) with the tracked packet unconsumed at entry.
type flowResult int

const (
	flowFell     flowResult = iota // fell through, still unconsumed
	flowConsumed                   // consumed on every path through it
	flowLeaked                     // some path terminated without consuming
)

type poolOwner struct {
	pass *Pass // nil during summary computation (no reporting there)
	info *types.Info
	// consume maps bodied functions to the bitmask of packet parameters
	// they are proved to consume (Graph.PacketConsumption) — the
	// interprocedural half of consumes.
	consume map[*types.Func]uint64
}

// checkUnit finds pool-source calls directly inside one function body
// (nested func literals are their own units) and verifies consumption.
func (po *poolOwner) checkUnit(body *ast.BlockStmt) {
	po.walkBlocks(body, body)
}

// walkBlocks visits every BlockStmt of the unit without descending into
// nested FuncLits, checking source calls bound in each block.
func (po *poolOwner) walkBlocks(b *ast.BlockStmt, unit *ast.BlockStmt) {
	ast.Inspect(b, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		po.checkBlock(blk, unit)
		return true
	})
}

// checkBlock examines a block's direct statements for packet sources.
func (po *poolOwner) checkBlock(blk *ast.BlockStmt, unit *ast.BlockStmt) {
	for i, stmt := range blk.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				continue
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !po.isSource(call) {
				continue
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				po.pass.Report(call.Pos(), "pooled packet discarded at acquisition; it can never be Released")
				continue
			}
			var obj types.Object
			declared := false
			if d := po.info.Defs[id]; d != nil {
				obj, declared = d, true
			} else if u := po.info.Uses[id]; u != nil {
				obj = u
			}
			if obj == nil {
				continue
			}
			rest := blk.List[i+1:]
			res := po.seq(rest, obj)
			if res == flowConsumed {
				continue
			}
			// Fell off the end of the binding's scope, or some path
			// returned early, without consuming. For a plain `=` to a
			// variable from an outer scope, falling off an inner block is
			// fine (the continuation is outside our view) — only the unit
			// body's end is a real exit.
			if res == flowLeaked || declared || blk == unit {
				po.pass.Report(call.Pos(), "pooled wire.Packet %q may leak: not Released, returned, stored, or passed to a consuming call on every path", id.Name)
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && po.isSource(call) {
				po.pass.Report(call.Pos(), "pooled packet discarded at acquisition; it can never be Released")
			}
		}
	}
}

func (po *poolOwner) isSource(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := po.info.Uses[sel.Sel].(*types.Func)
	return ok && packetSources[fn.FullName()]
}

// seq symbolically executes a statement list with x unconsumed.
func (po *poolOwner) seq(stmts []ast.Stmt, x types.Object) flowResult {
	for _, s := range stmts {
		switch r := po.eval(s, x); r {
		case flowConsumed, flowLeaked:
			return r
		}
	}
	return flowFell
}

// eval symbolically executes one statement.
func (po *poolOwner) eval(stmt ast.Stmt, x types.Object) flowResult {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if po.consumes(s.X, x) {
			return flowConsumed
		}
	case *ast.AssignStmt:
		// x on the RHS: aliasing into another variable, a field, a slice
		// or map element all hand the value onward — the next owner's
		// responsibility (aliases deliberately stop tracking).
		for _, rhs := range s.Rhs {
			if po.consumes(rhs, x) || po.usesVar(rhs, x) {
				return flowConsumed
			}
		}
		// x reassigned while unconsumed: tracking stops (permissive).
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && po.objOf(id) == x {
				return flowConsumed
			}
		}
		for _, rhs := range s.Rhs {
			if po.capturedByLit(rhs, x) {
				return flowConsumed
			}
		}
	case *ast.DeclStmt:
		if po.usesAnywhere(s, x) {
			return flowConsumed // var y = x — alias, next owner's problem
		}
	case *ast.DeferStmt:
		if po.consumes(s.Call, x) || po.usesAnywhere(s.Call, x) {
			// defer pkt.Release() (or a deferred closure touching pkt)
			// covers every subsequent exit.
			return flowConsumed
		}
	case *ast.GoStmt:
		if po.usesAnywhere(s.Call, x) {
			return flowConsumed // escaped to another goroutine
		}
	case *ast.SendStmt:
		if po.usesVar(s.Value, x) {
			return flowConsumed
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if po.usesAnywhere(r, x) {
				return flowConsumed
			}
		}
		return flowLeaked
	case *ast.IfStmt:
		if s.Init != nil {
			if r := po.eval(s.Init, x); r != flowFell {
				return r
			}
		}
		if po.consumesCond(s.Cond, x) {
			return flowConsumed
		}
		t := po.seq(s.Body.List, x)
		e := flowResult(flowFell)
		switch el := s.Else.(type) {
		case *ast.BlockStmt:
			e = po.seq(el.List, x)
		case *ast.IfStmt:
			e = po.eval(el, x)
		}
		if t == flowLeaked || e == flowLeaked {
			return flowLeaked
		}
		if t == flowConsumed && e == flowConsumed {
			return flowConsumed
		}
		return flowFell
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return po.evalCases(s, x)
	case *ast.ForStmt:
		if s.Body != nil {
			if r := po.seq(s.Body.List, x); r == flowLeaked {
				return flowLeaked
			} else if r == flowConsumed && s.Cond == nil {
				return flowConsumed // for{} with unconditional consume
			}
		}
	case *ast.RangeStmt:
		if s.Body != nil {
			if po.seq(s.Body.List, x) == flowLeaked {
				return flowLeaked
			}
		}
	case *ast.BlockStmt:
		return po.seq(s.List, x)
	case *ast.LabeledStmt:
		return po.eval(s.Stmt, x)
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this list unconsumed; the
		// loop-level approximation treats it as fall-through.
	}
	return flowFell
}

// evalCases handles switch/type-switch/select: consumed only when every
// case consumes and a default exists; any leaking case leaks.
func (po *poolOwner) evalCases(stmt ast.Stmt, x types.Object) flowResult {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(list []ast.Stmt) {
		for _, c := range list {
			switch cc := c.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, cc.Body)
				if cc.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, cc.Body)
				if cc.Comm == nil {
					hasDefault = true
				}
			}
		}
	}
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			if r := po.eval(s.Init, x); r != flowFell {
				return r
			}
		}
		collect(s.Body.List)
	case *ast.TypeSwitchStmt:
		collect(s.Body.List)
	case *ast.SelectStmt:
		collect(s.Body.List)
	}
	all := true
	for _, b := range bodies {
		switch po.seq(b, x) {
		case flowLeaked:
			return flowLeaked
		case flowFell:
			all = false
		}
	}
	if all && hasDefault && len(bodies) > 0 {
		return flowConsumed
	}
	return flowFell
}

// consumes reports whether evaluating expr definitely consumes x:
// x.Release(), x passed as a parameter its callee's summary consumes, x
// bound into a composite literal, or x appended into a slice.
func (po *poolOwner) consumes(expr ast.Expr, x types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && po.objOf(id) == x && sel.Sel.Name == "Release" {
					found = true
					return false
				}
			}
			// Consuming call: the callee's summary proves it consumes
			// the packet parameter x is passed as.
			if fn := po.calleeOf(n.Fun); fn != nil {
				if mask := po.consume[fn]; mask != 0 {
					for i, a := range n.Args {
						if i < 64 && mask&(uint64(1)<<i) != 0 && po.usesVar(a, x) {
							found = true
							return false
						}
					}
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := po.info.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range n.Args[1:] {
						if po.usesVar(a, x) {
							found = true
							return false
						}
					}
				}
			}
		case *ast.CompositeLit:
			if po.usesAnywhere(n, x) {
				found = true
				return false
			}
		case *ast.IndexExpr:
			// m[k] = x handled at AssignStmt level via usesVar on RHS.
		}
		return true
	})
	return found
}

// consumesCond treats consumption inside a condition (rare) the same as
// in any expression.
func (po *poolOwner) consumesCond(cond ast.Expr, x types.Object) bool {
	return cond != nil && po.consumes(cond, x)
}

// calleeOf resolves a call target to its *types.Func, for summary
// lookups; a call of an instantiated generic function resolves to the
// generic declaration its summary is computed on.
func (po *poolOwner) calleeOf(fun ast.Expr) *types.Func {
	var fn *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = po.objOf(f).(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = po.info.Uses[f.Sel].(*types.Func)
	}
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

func (po *poolOwner) objOf(id *ast.Ident) types.Object {
	if o := po.info.Uses[id]; o != nil {
		return o
	}
	return po.info.Defs[id]
}

// usesVar reports whether expr is exactly a reference to x.
func (po *poolOwner) usesVar(expr ast.Expr, x types.Object) bool {
	id, ok := expr.(*ast.Ident)
	return ok && po.objOf(id) == x
}

// usesAnywhere reports whether x is referenced anywhere inside n.
func (po *poolOwner) usesAnywhere(n ast.Node, x types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && po.objOf(id) == x {
			found = true
			return false
		}
		return true
	})
	return found
}

// capturedByLit reports whether a func literal in expr closes over x.
func (po *poolOwner) capturedByLit(expr ast.Expr, x types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if po.usesAnywhere(lit.Body, x) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}
