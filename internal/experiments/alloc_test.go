package experiments

import (
	"testing"

	"smt/internal/sim"
)

// This file pins the steady-state allocation behavior of the data path.
// PR 5 made the hot path pool-based (sim events, wire packets, codec
// scratch), so a warmed-up echo allocates only a small constant number
// of message-level objects (outMsg/inMsg bookkeeping, the app-facing
// payload copies) — never per-packet, per-event or per-record memory.
// A regression that reintroduces per-packet allocation shows up here as
// hundreds of allocations per echo (a 64 KiB echo crosses ~100 packets
// and several hundred scheduler events).

// echoAllocsPerOp measures allocations per steady-state echo RTT for
// one stack: build the two-host world, warm the pools with echo
// round-trips, then AllocsPerRun over single echoes.
func echoAllocsPerOp(t *testing.T, stack string, size int) float64 {
	t.Helper()
	sys, err := BuildSystem(mustStack(stack))
	if err != nil {
		t.Fatalf("build %s: %v", stack, err)
	}
	w := NewWorld(7)
	doneID := uint64(0)
	gotDone := false
	issue, err := sys.Setup(w, 1, 0, false, func(id uint64) { doneID, gotDone = id, true })
	if err != nil {
		t.Fatalf("setup %s: %v", stack, err)
	}
	nextID := uint64(0)
	echo := func() {
		id := nextID
		nextID++
		gotDone = false
		issue(0, id, size, size)
		deadline := w.Eng.Now() + 50*sim.Millisecond
		for !gotDone && w.Eng.Now() < deadline {
			w.Eng.RunUntil(w.Eng.Now() + 100*sim.Microsecond)
		}
		if !gotDone || doneID != id {
			t.Fatalf("%s: echo %d did not complete (done=%v id=%d)", stack, id, gotDone, doneID)
		}
	}
	// Warm pools, caches, and map internals well past the first growth.
	for i := 0; i < 64; i++ {
		echo()
	}
	return testing.AllocsPerRun(50, echo)
}

// TestSteadyStateAllocs pins per-echo allocation budgets for every
// registered stack. Budgets are measured values plus headroom — small
// constants, independent of packet, event, and record counts. If this
// fails after a change, run with -v to see the measured numbers and
// look for a new per-packet allocation on the path.
func TestSteadyStateAllocs(t *testing.T) {
	// Budgets per one 4 KiB echo (request + response). Message-level
	// work (outMsg/inMsg structs, payload copies, delivery buffers and
	// map churn) legitimately allocates per echo; per-packet costs do
	// not appear because a 4 KiB echo still crosses multiple packets,
	// ACKs, grants and dozens of scheduler events.
	// Measured: TCP 37; kTLS-sw, kTLS-hw, TLS and TCPLS 41; Homa 45;
	// SMT-sw 43; SMT-hw 45. Budgets add headroom for map-growth variance
	// while staying far below the hundreds a per-packet regression would
	// produce.
	budgets := map[string]float64{
		"TCP":     48,
		"kTLS-sw": 58,
		"kTLS-hw": 58,
		"TLS":     58,
		"TCPLS":   58,
		"Homa":    62,
		"SMT-sw":  64,
		"SMT-hw":  66,
	}
	for _, spec := range Stacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			budget, ok := budgets[spec.Name]
			if !ok {
				t.Fatalf("no allocation budget for registered stack %q — add one", spec.Name)
			}
			got := echoAllocsPerOp(t, spec.Name, 4096)
			t.Logf("%s: %.1f allocs per 4KiB echo (budget %.0f)", spec.Name, got, budget)
			if got > budget {
				t.Fatalf("%s: %.1f allocs per echo exceeds budget %.0f — a per-packet or per-event allocation crept back in", spec.Name, got, budget)
			}
		})
	}
}
