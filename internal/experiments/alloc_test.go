package experiments

import (
	"testing"

	"smt/internal/sim"
)

// This file pins the steady-state allocation behavior of the data path.
// The hot path is pool-based (sim events, wire packets, NIC transmit
// jobs, codec scratch, both transports' per-message state and
// callbacks, their send copies and delivery buffers, and the echo
// server's replies), so a warmed-up echo allocates only the few
// message-level objects still outside the pools (plain Homa's
// PlainCodec segment descriptors, the TCP family's retained stream
// chunks) — never per-packet, per-event or per-record memory.
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
	// Budgets per one echo (request + response) of 64 B, the rpc-small
	// message size, and of 4 KiB. Per-packet costs do not appear
	// because a 4 KiB echo crosses multiple packets, ACKs and dozens of
	// scheduler events; payload copies, delivery buffers, NIC jobs and
	// the transports' message state come from pools, so they do not
	// appear either. Plain Homa allocates one PlainCodec segment
	// descriptor per message, and the TCP family's codecs allocate the
	// chunks a connection retains for retransmission.
	// Measured (64 B / 4 KiB): TCP 4/4; kTLS-sw, TLS and TCPLS 8/6;
	// kTLS-hw 6/6; Homa 2/2; SMT-sw and SMT-hw 0/0. Budgets add ~30%
	// headroom (rounded up) for map-growth variance while staying far
	// below the hundreds a per-packet regression would produce.
	sizes := [2]int{64, 4096}
	budgets := map[string][2]float64{
		"TCP":     {6, 6},
		"kTLS-sw": {11, 8},
		"kTLS-hw": {8, 8},
		"TLS":     {11, 8},
		"TCPLS":   {11, 8},
		"Homa":    {3, 3},
		"SMT-sw":  {0, 0},
		"SMT-hw":  {0, 0},
	}
	for _, spec := range Stacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			budget, ok := budgets[spec.Name]
			if !ok {
				t.Fatalf("no allocation budget for registered stack %q — add one", spec.Name)
			}
			for i, size := range sizes {
				got := echoAllocsPerOp(t, spec.Name, size)
				t.Logf("%s: %.1f allocs per %d B echo (budget %.0f)", spec.Name, got, size, budget[i])
				if got > budget[i] {
					t.Fatalf("%s: %.1f allocs per %d B echo exceeds budget %.0f — a per-packet or per-event allocation crept back in", spec.Name, got, size, budget[i])
				}
			}
		})
	}
}
