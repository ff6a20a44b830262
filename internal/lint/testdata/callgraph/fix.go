// Package cgfix exercises the call-graph builder directly (see
// callgraph_test.go): direct calls, conservative interface dispatch
// over the first-party class hierarchy, and calls through stored func
// values / method values, which get no edge; calls into generic code
// edge to the generic declaration. It carries no want
// comments — the test asserts must- and must-not-edges on the Graph
// itself.
package cgfix

// Ringer has two first-party implementations with different receiver
// forms; a call through the interface must edge to both.
type Ringer interface{ Ring() }

type Bell struct{}

func (Bell) Ring() {}

type Horn struct{}

func (*Horn) Ring() {}

// Silent does not implement Ringer; its method must never receive an
// interface-dispatch edge.
type Silent struct{}

func (Silent) Honk() {}

func helper() {}

func direct() { helper() }

func viaInterface(r Ringer) { r.Ring() }

func caller() { viaInterface(Bell{}) }

// Box is generic: calls to a method of an instantiated Box and to an
// instantiated generic function must edge to their generic
// declarations, the only bodies there are.
type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }

func identity[T any](v T) T { return v }

func viaGeneric(b *Box[int]) { b.Put(identity(1)) }

// stored invokes a func-typed variable: the callee is not statically
// known, so the builder adds no edge.
func stored() {
	f := helper
	f()
}

// methodValue invokes a method value the same way.
func methodValue(b Bell) {
	f := b.Ring
	f()
}
