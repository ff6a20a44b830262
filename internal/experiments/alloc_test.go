package experiments

import (
	"testing"

	"smt/internal/sim"
)

// This file pins the steady-state allocation behavior of the data path.
// The hot path is pool-based (sim events, wire packets, NIC transmit
// jobs, codec scratch and segments, the TCP family's stream chunks, both
// transports' per-message state and callbacks, their send copies and
// delivery buffers, and the echo server's replies), so a warmed-up echo
// allocates nothing on any stack — no per-message, per-packet, per-event
// or per-record memory.
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

// TestSteadyStateAllocs pins a zero per-echo allocation budget for
// every registered stack. If this fails after a change, run with -v to
// see the measured numbers and look for a new per-message or per-packet
// allocation on the path.
func TestSteadyStateAllocs(t *testing.T) {
	// One echo (request + response) of 64 B, the rpc-small message size,
	// and of 4 KiB, which crosses multiple packets, ACKs and dozens of
	// scheduler events. Payload copies, stream chunks, delivery buffers,
	// NIC jobs and the transports' message state all come from pools.
	sizes := [2]int{64, 4096}
	for _, spec := range Stacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, size := range sizes {
				got := echoAllocsPerOp(t, spec.Name, size)
				t.Logf("%s: %.1f allocs per %d B echo", spec.Name, got, size)
				if got != 0 {
					t.Fatalf("%s: %.1f allocs per %d B echo, want 0 — a per-message, per-packet or per-event allocation crept back in", spec.Name, got, size)
				}
			}
		})
	}
}
