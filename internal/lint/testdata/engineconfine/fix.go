// Package engfix is analysis-only fixture data for the engineconfine
// analyzer: code that runs under a sim.Engine (Action implementations,
// func values handed to the scheduling surfaces) must not write
// package-level state — the aliasing precondition for running multiple
// engine worlds in parallel.
package engfix

import "smt/internal/sim"

var (
	ticks     int
	posts     int
	transited int
	warmups   int
)

type tick struct{ n int }

// Run implements sim.Action, so it is engine-confined by construction.
func (t *tick) Run() {
	ticks++ // want "package-level variable"
	t.n++   // receiver state is the engine's own world: fine
	bump()
}

// bump is confined transitively, over the direct edge from tick.Run.
func bump() {
	transited = transited + 1 // want "package-level variable"
}

func arm(e *sim.Engine) {
	// arm itself runs outside the engine, but the closure it schedules
	// runs inside.
	e.At(0, func() {
		posts++ // want "package-level variable"
	})
}

type world struct{ count int }

// Run implements sim.Action; writes stay on the world's own state.
func (w *world) Run() {
	w.count++
}

// setup is a negative: it is not reachable from any confined root, so
// touching package state before the engine starts is legitimate.
func setup() {
	warmups = 0
}
