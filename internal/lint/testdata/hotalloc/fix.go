// Package hotfix is analysis-only fixture data for the hotalloc
// analyzer: a synthetic steady-state root (declared with //smt:hotroot,
// the same mechanism the real roots use under the hood) plus one
// example of each recognized allocation kind, each exemption form, and
// the directive grammar's failure mode.
package hotfix

import (
	"fmt"

	"smt/internal/sim"
)

// Sink absorbs values so the fixture type-checks.
var Sink any

type state struct {
	buf   []byte
	eng   *sim.Engine
	fire  func()
	seen  map[int]bool
	count map[int]int
}

type msg struct{ n int }

func use(int) {}

// pump is this fixture's steady-state root: everything reachable from
// it over direct and interface edges is hot.
//
//smt:hotroot
func pump(s *state, m *msg, data []byte) {
	Sink = make([]byte, m.n)      // want "make allocates"
	Sink = new(msg)               // want "new allocates"
	Sink = &msg{n: 1}             // want "heap-escaping composite literal"
	Sink = []int{1, 2}            // want "slice/map literal allocates"
	Sink = fmt.Sprintf("%d", m.n) // want "fmt.Sprintf allocates"
	Sink = string(data)           // want "string conversion allocates"
	Sink = any(*m)                // want "interface conversion boxes a value"

	var fresh []int
	fresh = append(fresh, 1) // want "append into non-scratch storage"
	Sink = fresh

	// The scratch idiom: storage rooted in a field amortizes to zero
	// allocations, so appending into it is allowed.
	out := s.buf[:0]
	out = append(out, data...)
	s.buf = out

	fn := func() { m.n++ } // want "capturing closure"
	fn()

	// The alloc-free scheduling forms allocate one closure per event when
	// handed a capturing literal; a capture-free literal (a static func
	// value) and a prebuilt func field do not.
	s.eng.At(0, func() { use(m.n) })    // want "capturing closure"
	s.eng.After(1, func() { use(m.n) }) // want "capturing closure"
	s.eng.At(0, func() { use(0) })
	s.eng.After(1, s.fire)

	if m.n < 0 {
		// A guard clause ending in panic or return is cold by
		// construction: error paths never run at steady state.
		Sink = make([]byte, 8)
		panic("hotfix: negative length")
	}

	//smt:coldpath -- fixture: the reasoned line exemption covers the site below
	Sink = make([]byte, 16)

	//smt:coldpath // want "needs a reason"
	Sink = make([]byte, 32) // want "make allocates"

	// A &composite literal handed to a parameter its callee never lets
	// escape stays in this frame; one the callee stores or captures is
	// heap-allocated.
	use(peek(&msg{n: 2}))
	keep(&msg{n: 3})     // want "heap-escaping composite literal"
	later(s, &msg{n: 4}) // want "heap-escaping composite literal"

	// A map insert (plain, compound or ++) can grow the map; a read or a
	// delete cannot.
	s.seen[m.n] = true // want "map insert can grow the map"
	s.count[m.n] += 2  // want "map insert can grow the map"
	s.count[m.n]++     // want "map insert can grow the map"
	use(s.count[m.n])
	delete(s.seen, m.n)
	//smt:coldpath -- fixture: a first-contact insert, once per key
	s.seen[-m.n] = true

	helper(m)
	coldHelper(m)
}

// peek reads and copies its argument without retaining it.
func peek(m *msg) int {
	if m == nil {
		return 0
	}
	c := *m
	m.n++
	return c.n + m.n
}

// keep retains its argument.
func keep(m *msg) { Sink = m }

// later captures its argument in a callback.
func later(s *state, m *msg) {
	s.fire = func() { use(m.n) } // want "capturing closure"
}

// helper is hot only transitively, through its caller.
func helper(m *msg) {
	Sink = new(msg) // want "new allocates"
}

// coldHelper is doc-annotated cold: nothing inside it is flagged, and
// reachability does not pass through it to deepHelper.
//
//smt:coldpath fixture: explicitly off the steady-state path
func coldHelper(m *msg) {
	Sink = new(msg)
	deepHelper(m)
}

// deepHelper is reachable only through the cold coldHelper, so its
// allocation is not hot.
func deepHelper(m *msg) {
	Sink = new(msg)
}

// offPath is not reachable from any root: it may allocate freely.
func offPath() []byte {
	return make([]byte, 64)
}

// ring is the fixture's stand-in for the sim engine's timing wheel: the
// hotroot directive on a pointer-receiver method, which is how the real
// wheel's advance/cascade/pop path is rooted.
type ring struct {
	level int
}

// advance is a method-receiver steady-state root.
//
//smt:hotroot
func (r *ring) advance(m *msg) {
	Sink = &msg{n: r.level} // want "heap-escaping composite literal"
	r.cascade(m)
}

// cascade is hot only transitively, through the method root above —
// reachability must cross method-to-method call edges.
func (r *ring) cascade(m *msg) {
	Sink = new(msg) // want "new allocates"
}
