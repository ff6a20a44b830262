package experiments

import (
	"testing"

	"smt/internal/sim"
)

// This file pins the steady-state allocation behavior of the data path.
// The hot path is pool-based (sim events, wire packets, codec scratch,
// and the send copies and delivery buffers of both transports), so a
// warmed-up echo allocates only a small constant number of
// message-level objects (outMsg/inMsg bookkeeping, send closures,
// retained stream chunks) — never per-packet, per-event or per-record
// memory.
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
	// work (outMsg/inMsg structs, send closures, retained stream chunks
	// and map churn) legitimately allocates per echo; per-packet costs
	// do not appear because a 4 KiB echo still crosses multiple packets,
	// ACKs, grants and dozens of scheduler events. Payload copies and
	// delivery buffers come from pools, so they do not appear either.
	// Measured: TCP 23; kTLS-sw, kTLS-hw, TLS and TCPLS 25; Homa 31;
	// SMT-sw 29; SMT-hw 31. Budgets add ~30% headroom (rounded up) for
	// map-growth variance while staying far below the hundreds a
	// per-packet regression would produce.
	budgets := map[string]float64{
		"TCP":     30,
		"kTLS-sw": 33,
		"kTLS-hw": 33,
		"TLS":     33,
		"TCPLS":   33,
		"Homa":    41,
		"SMT-sw":  38,
		"SMT-hw":  41,
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
