package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the per-function summaries the interprocedural
// rules propagate over the call graph:
//
//   - packet consumption (poolowner): which *wire.Packet parameters a
//     function consumes — Release, store, or hand-off — on every path.
//     Computed as a monotone fixpoint: a call to an already-proved
//     consumer counts as consumption, so chains like
//     send → enqueue → append-into-queue resolve without annotations.
//   - key-material taint (keyflow): whether a function's returns carry
//     secrets, which parameters' taint reaches a return, and which
//     parameters reach a secret sink (error strings, artifact JSON,
//     plaintext wire writes) inside the function or transitively.
//
// Both are cached on the Graph, which is itself cached on the Program,
// so the whole interprocedural layer is built once per lint run.

// ---------------------------------------------------------------------
// Packet-consumption summaries (poolowner).

// isWirePacketPtr reports whether t is *smt/internal/wire.Packet (or the
// fixture-visible equivalent).
func isWirePacketPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Path() == "smt/internal/wire"
}

// PacketConsumption returns, for every bodied first-party function, the
// bitmask of its *wire.Packet parameters that are consumed on every path
// through the body (bit i = parameter i, receiver excluded). The map is
// a fixpoint: consumption through calls to other inferred consumers
// counts.
func (g *Graph) PacketConsumption() map[*types.Func]uint64 {
	if g.consume != nil {
		return g.consume
	}
	g.consume = make(map[*types.Func]uint64)

	// Candidates: bodied functions with at least one named packet param.
	type candidate struct {
		node   *Node
		params []paramSlot
	}
	var cands []candidate
	for _, n := range g.Nodes {
		if n.Fn == nil || n.Decl == nil || n.Decl.Type.Params == nil {
			continue
		}
		slots := packetParams(n)
		if len(slots) > 0 {
			cands = append(cands, candidate{node: n, params: slots})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			po := &poolOwner{info: c.node.Pkg.Info, consume: g.consume}
			for _, slot := range c.params {
				bit := uint64(1) << slot.index
				if g.consume[c.node.Fn]&bit != 0 {
					continue
				}
				if po.seq(c.node.Body.List, slot.obj) == flowConsumed {
					g.consume[c.node.Fn] |= bit
					changed = true
				}
			}
		}
	}
	return g.consume
}

// paramSlot is one trackable packet parameter: its position in the
// signature and its declared object.
type paramSlot struct {
	index int
	obj   types.Object
}

// packetParams lists n's named *wire.Packet parameters, and those typed
// by a type parameter, which an instantiation may bind to *wire.Packet:
// a generic container that stores its item on every path consumes the
// packets it holds (positions past 63 are untrackable in the bitmask
// and skipped; no signature in this repo comes close).
func packetParams(n *Node) []paramSlot {
	var slots []paramSlot
	idx := 0
	for _, field := range n.Decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++ // unnamed parameter still occupies a position
			continue
		}
		for _, name := range names {
			if idx < 64 && name.Name != "_" {
				obj := n.Pkg.Info.Defs[name]
				if obj != nil && (isWirePacketPtr(obj.Type()) || isTypeParam(obj.Type())) {
					slots = append(slots, paramSlot{index: idx, obj: obj})
				}
			}
			idx++
		}
	}
	return slots
}

// isTypeParam reports whether t is a type parameter.
func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

// ---------------------------------------------------------------------
// Key-material taint summaries (keyflow).

// secretBit marks taint that originates from an actual secret source;
// lower bits mark taint that originates from parameter i (so callers can
// substitute their arguments' taint).
const secretBit uint64 = 1 << 63

// taintFacts is one function's keyflow summary.
type taintFacts struct {
	// returnsSecret: some return value carries secret-sourced taint
	// independent of the arguments (hkdfx outputs, SessionKeys fields).
	returnsSecret bool
	// passParams: parameters whose taint flows to a return value.
	passParams uint64
	// sinkParams: parameters whose taint reaches a secret sink inside
	// this function or a callee.
	sinkParams uint64
}

// taintHit is one concrete secret-to-sink flow, reported by the keyflow
// analyzer in the package that contains it.
type taintHit struct {
	pkg string
	pos token.Pos
	msg string
}

// KeyflowFacts computes taint summaries for every bodied function and
// the concrete sink hits, as a program-wide fixpoint. The hits slice is
// in graph node order (deterministic).
func (g *Graph) KeyflowFacts() (map[*types.Func]*taintFacts, []taintHit) {
	if g.taint != nil {
		return g.taint, g.taintHits
	}
	g.taint = make(map[*types.Func]*taintFacts)
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Fn == nil {
				continue
			}
			tw := &taintWalker{graph: g, node: n, info: n.Pkg.Info}
			facts := tw.analyze(nil)
			old := g.taint[n.Fn]
			if old == nil || *old != *facts {
				g.taint[n.Fn] = facts
				changed = true
			}
		}
	}
	// Final pass records the concrete hits (deterministic node order).
	for _, n := range g.Nodes {
		tw := &taintWalker{graph: g, node: n, info: n.Pkg.Info}
		var hits []taintHit
		tw.analyze(&hits)
		g.taintHits = append(g.taintHits, hits...)
	}
	return g.taint, g.taintHits
}

// taintWalker runs the intra-procedural taint propagation for one
// function (or func literal) body.
type taintWalker struct {
	graph *Graph
	node  *Node
	info  *types.Info
	vars  map[types.Object]uint64
	param map[types.Object]int
}

// analyze computes the node's taint facts; with hits non-nil it also
// records concrete secret-to-sink flows.
func (tw *taintWalker) analyze(hits *[]taintHit) *taintFacts {
	tw.vars = make(map[types.Object]uint64)
	tw.param = make(map[types.Object]int)
	facts := &taintFacts{}
	if tw.node.Decl != nil && tw.node.Decl.Type.Params != nil {
		idx := 0
		for _, field := range tw.node.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := tw.info.Defs[name]; obj != nil && idx < 63 {
					tw.param[obj] = idx
					tw.vars[obj] = uint64(1) << idx
				}
				idx++
			}
		}
	}
	// Propagate assignments to a fixpoint (loops feed taint backward);
	// the var count bounds iterations, 32 is far beyond any real body.
	for i := 0; i < 32; i++ {
		if !tw.propagate() {
			break
		}
	}
	// Collect return flows and sink hits.
	tw.walkBody(func(nd ast.Node) {
		switch s := nd.(type) {
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				t := tw.exprTaint(r)
				if t&secretBit != 0 {
					facts.returnsSecret = true
				}
				facts.passParams |= t &^ secretBit
			}
		case *ast.CallExpr:
			tw.checkSink(s, facts, hits)
		case *ast.AssignStmt:
			tw.checkPayloadAssign(s, facts, hits)
		}
	})
	return facts
}

// walkBody visits the node's own statements, skipping nested literals
// (they are separate graph nodes).
func (tw *taintWalker) walkBody(visit func(ast.Node)) {
	ast.Inspect(tw.node.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != tw.node.Lit {
			return false
		}
		if nd != nil {
			visit(nd)
		}
		return true
	})
}

// propagate runs one round of assignment-based taint propagation and
// reports whether anything changed.
func (tw *taintWalker) propagate() bool {
	changed := false
	absorb := func(obj types.Object, t uint64) {
		if obj == nil || t == 0 {
			return
		}
		if tw.vars[obj]|t != tw.vars[obj] {
			tw.vars[obj] |= t
			changed = true
		}
	}
	// Assignments taint bare-ident targets only. Tainting the root of a
	// selector store (s.sessions[k] = codec) would smear secrecy over
	// every unrelated field of s — field-insensitive explosion. The
	// byte-level vector that matters, copy()ing secret bytes into
	// someone's storage, is handled below and does taint the root.
	identTarget := func(lhs ast.Expr) types.Object {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			return tw.rootObj(id)
		}
		return nil
	}
	tw.walkBody(func(nd ast.Node) {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					absorb(identTarget(lhs), tw.exprTaint(s.Rhs[i]))
				}
			} else if len(s.Rhs) == 1 {
				t := tw.exprTaint(s.Rhs[0])
				for _, lhs := range s.Lhs {
					absorb(identTarget(lhs), t)
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					absorb(tw.info.Defs[name], tw.exprTaint(s.Values[i]))
				} else if len(s.Values) == 1 {
					absorb(tw.info.Defs[name], tw.exprTaint(s.Values[0]))
				}
			}
		case *ast.RangeStmt:
			t := tw.exprTaint(s.X)
			if s.Key != nil {
				absorb(tw.rootObj(s.Key), t)
			}
			if s.Value != nil {
				absorb(tw.rootObj(s.Value), t)
			}
		case *ast.CallExpr:
			// copy(dst, src) moves src's taint into dst's storage.
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 {
				if _, isBuiltin := tw.info.Uses[id].(*types.Builtin); isBuiltin {
					absorb(tw.rootObj(s.Args[0]), tw.exprTaint(s.Args[1]))
				}
			}
		}
	})
	return changed
}

// rootObj unwraps an lvalue (selectors, indexing, derefs, parens) to the
// local object it is rooted at.
func (tw *taintWalker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := tw.info.Defs[x]; o != nil {
				return o
			}
			return tw.info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSecretType reports whether t is core.SessionKeys (by value, pointer
// or embedding in a slice) — the session key schedule struct itself.
func isSecretType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "SessionKeys" && obj.Pkg() != nil && obj.Pkg().Path() == "smt/internal/core"
}

// secretField reports whether sel selects a known secret-holding field:
// handshake.Result.Master or handshake.Options.PriorSecret.
func (tw *taintWalker) secretField(sel *ast.SelectorExpr) bool {
	s := tw.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "smt/internal/handshake" {
		return false
	}
	return v.Name() == "Master" || v.Name() == "PriorSecret"
}

// secretSourceCall reports whether the call's callee mints key material:
// any hkdfx function, or handshake.ResumptionMaster.
func secretSourceCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "smt/internal/hkdfx":
		return true
	case "smt/internal/handshake":
		return fn.Name() == "ResumptionMaster"
	}
	return false
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// exprTaint computes the taint mask of an expression. Error values are
// a deliberate taint cut: tuple returns smear taint across all results,
// and an error is a string, not key bytes — a callee that really stuffs
// a secret into an error is caught at its own fmt/errors.New call where
// the raw secret is the argument.
func (tw *taintWalker) exprTaint(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	if tv, ok := tw.info.Types[e]; ok && tv.Type != nil {
		if isSecretType(tv.Type) {
			return secretBit
		}
		if types.Identical(tv.Type, errorType) {
			return 0
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if o := tw.info.Uses[x]; o != nil {
			return tw.vars[o]
		}
		if o := tw.info.Defs[x]; o != nil {
			return tw.vars[o]
		}
	case *ast.SelectorExpr:
		if tw.secretField(x) {
			return secretBit
		}
		if s := tw.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			return tw.exprTaint(x.X) // field of a tainted value is tainted
		}
	case *ast.CallExpr:
		return tw.callTaint(x)
	case *ast.ParenExpr:
		return tw.exprTaint(x.X)
	case *ast.StarExpr:
		return tw.exprTaint(x.X)
	case *ast.UnaryExpr:
		return tw.exprTaint(x.X)
	case *ast.BinaryExpr:
		return tw.exprTaint(x.X) | tw.exprTaint(x.Y)
	case *ast.IndexExpr:
		return tw.exprTaint(x.X)
	case *ast.SliceExpr:
		return tw.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return tw.exprTaint(x.X)
	case *ast.KeyValueExpr:
		return tw.exprTaint(x.Value)
	case *ast.CompositeLit:
		var t uint64
		for _, el := range x.Elts {
			t |= tw.exprTaint(el)
		}
		return t
	}
	return 0
}

// callTaint computes the taint of a call expression's result: sources
// mint secretBit, first-party callees substitute their summaries,
// conversions and taint-preserving builtins pass taint through, and
// everything else (the standard library, crypto included) cuts it —
// ciphertext is by design not key material.
func (tw *taintWalker) callTaint(call *ast.CallExpr) uint64 {
	fun := ast.Unparen(call.Fun)
	// Conversions preserve taint: []byte(secret) is still secret.
	if tv, ok := tw.info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return tw.exprTaint(call.Args[0])
		}
		return 0
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := tw.info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				var t uint64
				for _, a := range call.Args {
					t |= tw.exprTaint(a)
				}
				return t
			case "min", "max":
				var t uint64
				for _, a := range call.Args {
					t |= tw.exprTaint(a)
				}
				return t
			default: // len, cap, make, new, copy... results carry no bytes
				return 0
			}
		}
	}
	fn := tw.calleeFunc(fun)
	if fn == nil {
		return 0 // call through a func value: conservative cut
	}
	if secretSourceCall(fn) {
		return secretBit
	}
	if facts := tw.graph.taint[fn]; facts != nil {
		var t uint64
		if facts.returnsSecret {
			t = secretBit
		}
		for i, a := range call.Args {
			if i < 63 && facts.passParams&(uint64(1)<<i) != 0 {
				t |= tw.exprTaint(a)
			}
		}
		return t
	}
	return 0 // standard library: declassification boundary
}

// calleeFunc resolves a call's statically known callee, or nil.
func (tw *taintWalker) calleeFunc(fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := tw.info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := tw.info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// sinkKind classifies a callee as a secret sink and names it for the
// report. The three sink families are exactly the ISSUE's: error/log
// strings, artifact JSON, and plaintext wire writes.
func sinkKind(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return "a formatted string (error/log text)"
	case "errors":
		if fn.Name() == "New" {
			return "an error string"
		}
	case "encoding/json":
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			return "artifact JSON"
		}
	case "smt/internal/wire":
		if fn.Name() == "SetPayload" || fn.Name() == "CopyFrom" {
			return "a plaintext wire payload"
		}
	}
	return ""
}

// checkSink inspects one call: direct sinks with tainted arguments, and
// first-party callees whose summary marks a parameter as sink-reaching.
func (tw *taintWalker) checkSink(call *ast.CallExpr, facts *taintFacts, hits *[]taintHit) {
	fun := ast.Unparen(call.Fun)
	// copy(pkt.Payload, secret) writes plaintext key bytes to the wire.
	if id, ok := fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if _, isBuiltin := tw.info.Uses[id].(*types.Builtin); isBuiltin {
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && sel.Sel.Name == "Payload" {
				if tv, ok := tw.info.Types[sel.X]; ok && isWirePacketPtr(tv.Type) {
					tw.flag(call.Pos(), tw.exprTaint(call.Args[1]), "a plaintext wire payload", facts, hits)
				}
			}
		}
	}
	fn := tw.calleeFunc(fun)
	if fn == nil {
		return
	}
	if kind := sinkKind(fn); kind != "" {
		var t uint64
		for _, a := range call.Args {
			t |= tw.exprTaint(a)
		}
		tw.flag(call.Pos(), t, kind, facts, hits)
		return
	}
	if callee := tw.graph.taint[fn]; callee != nil && callee.sinkParams != 0 {
		for i, a := range call.Args {
			if i < 63 && callee.sinkParams&(uint64(1)<<i) != 0 {
				tw.flag(call.Pos(), tw.exprTaint(a), fmt.Sprintf("a secret sink inside %s", fn.Name()), facts, hits)
			}
		}
	}
}

// checkPayloadAssign flags pkt.Payload = <tainted>: binding key material
// directly as a packet's wire payload.
func (tw *taintWalker) checkPayloadAssign(s *ast.AssignStmt, facts *taintFacts, hits *[]taintHit) {
	for i, lhs := range s.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Payload" || i >= len(s.Rhs) {
			continue
		}
		if tv, ok := tw.info.Types[sel.X]; ok && isWirePacketPtr(tv.Type) {
			tw.flag(s.Pos(), tw.exprTaint(s.Rhs[i]), "a plaintext wire payload", facts, hits)
		}
	}
}

// flag records a flow into a sink: secret-sourced taint is a concrete
// hit; parameter taint marks the parameter as sink-reaching so callers
// passing secrets get flagged at their call site.
func (tw *taintWalker) flag(pos token.Pos, taint uint64, kind string, facts *taintFacts, hits *[]taintHit) {
	facts.sinkParams |= taint &^ secretBit
	if taint&secretBit == 0 || hits == nil {
		return
	}
	where := "function"
	if tw.node.Fn != nil {
		where = tw.node.Fn.Name()
	}
	*hits = append(*hits, taintHit{
		pkg: tw.node.Pkg.Path,
		pos: pos,
		msg: fmt.Sprintf("key material flows into %s in %s; secrets must never reach error strings, artifacts, or the wire in the clear", kind, where),
	})
}

// funcDisplayName renders a node name for rule messages without the
// module path noise.
func funcDisplayName(n *Node) string {
	if n.Fn == nil {
		return "func literal"
	}
	full := n.Fn.FullName()
	return strings.ReplaceAll(full, "smt/internal/", "")
}
