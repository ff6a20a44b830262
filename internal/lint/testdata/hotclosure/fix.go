// Package hotfix is analysis-only fixture data for the scheduling-closure
// cases hotalloc took over from the retired hotclosure rule (see
// testdata/determinism for the want-comment convention). Both methods
// are rooted with //smt:hotroot, the way the stored arrivalFn/deliverFn
// callbacks are, so a capturing literal handed to Engine.At/After is a
// hot allocation.
package hotfix

import "smt/internal/sim"

type node struct {
	eng  *sim.Engine
	fire func()
	act  sim.Action
}

func use(int) {}

//smt:hotroot
func (n *node) capturing(x int) {
	n.eng.At(0, func() { use(x) })    // want "capturing closure"
	n.eng.After(1, func() { use(x) }) // want "capturing closure"
}

// clean shows every approved scheduling form: a capture-free literal
// (compiles to a static func value), a prebuilt func-valued field, and
// the pooled Action forms.
//
//smt:hotroot
func (n *node) clean() {
	n.eng.At(0, func() { use(0) })
	n.eng.After(1, n.fire)
	n.eng.PostAction(0, n.act)
	n.eng.PostActionAfter(1, n.act)
}
