package experiments

import (
	"bytes"
	"testing"

	"smt/internal/audit"
	"smt/internal/cpusim"
	"smt/internal/rpc"
	"smt/internal/sim"
)

// This file is the auditor's acceptance bar over the whole registry:
// every registered experiment must run green under the wire-compliance
// tap (no invariant violations, conserved bytes, no pooled-packet
// leaks), and because the tap is a pure observer, the default artifacts
// must stay byte-identical with auditing on. The negative control at the
// bottom proves the bar has teeth: a deliberately planted plaintext leak
// must be flagged.
//
// Tests here toggle the global SetAuditAll knob, so none of them use
// t.Parallel: top-level tests run serially, and parallel subtests of an
// earlier test always finish before the next top-level test starts.

// auditWorldsOf runs one registry point with global auditing on and
// returns the audited worlds it built (empty for the analytic
// experiments that never build a World).
func auditWorldsOf(t *testing.T, e Experiment, pt Point) []*World {
	t.Helper()
	SetAuditAll(true)
	res := e.Run(pt)
	SetAuditAll(false)
	worlds := TakeAuditedWorlds()
	if res.Err != "" {
		t.Fatalf("%s point %q failed under audit: %s", e.Name(), pt.Key, res.Err)
	}
	return worlds
}

// drainSpread is the spread of e's points the two drained-world tests
// sweep between them — the first and last points, and in full mode the
// middle one — split so that each point is swept once: the leak test
// takes the last point and the audit test the rest. A single-point
// experiment is swept by both.
func drainSpread(e Experiment) (audited, leak []Point) {
	maxPts := 3
	if testing.Short() {
		maxPts = 2
	}
	pts := spreadPoints(e.Points(), maxPts)
	if len(pts) == 1 {
		return pts, pts
	}
	return pts[:len(pts)-1], pts[len(pts)-1:]
}

// checkDrained runs each point with the auditor attached to every world
// built, then drains each world and asserts the full invariant set: zero
// violations (plaintext, nonce/keystream reuse, framing), conservation
// at quiescence, and an empty packet pool.
func checkDrained(t *testing.T, e Experiment, pts []Point) {
	t.Helper()
	for _, pt := range pts {
		for _, w := range auditWorldsOf(t, e, pt) {
			if !w.DrainQuiesce(2 * sim.Second) {
				t.Errorf("%s: world did not quiesce (%d events pending)", pt.Key, w.Eng.Pending())
				continue
			}
			w.Audit.CheckConservation(w.Net)
			st := w.Audit.Stats()
			if st.TotalViolations != 0 {
				for _, v := range w.Audit.Violations() {
					t.Errorf("%s: %s", pt.Key, v)
				}
			}
			if st.Packets == 0 {
				t.Errorf("%s: audited world saw no packets — tap not attached?", pt.Key)
			}
			if n := w.Net.OutstandingPackets(); n != 0 {
				t.Errorf("%s: %d pooled packets outstanding at quiescence", pt.Key, n)
			}
		}
	}
}

// TestAuditorGreenAcrossRegistry runs checkDrained over every registered
// experiment's share of drainSpread.
func TestAuditorGreenAcrossRegistry(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; no simulated wire to audit")
			}
			pts, _ := drainSpread(e)
			checkDrained(t, e, pts)
		})
	}
}

// TestPacketPoolLeakFreedom asserts, for every registered experiment,
// that a drained world returns every pooled packet: the zero-allocation
// data path recycles packets through wire.PacketPool, so any code path
// that loses a reference (a dropped retransmit, an abandoned
// reassembly, a dead connection's queue) shows up here as a nonzero
// outstanding count. It runs checkDrained on the last point of
// drainSpread, the one TestAuditorGreenAcrossRegistry leaves to it.
func TestPacketPoolLeakFreedom(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; no simulated network")
			}
			_, pts := drainSpread(e)
			checkDrained(t, e, pts)
		})
	}
}

// TestAuditArtifactIdentity pins the observer contract end to end: the
// seeded JSON artifacts of the headline experiments are byte-identical
// with the audit tap attached and without it. Any engine RNG draw,
// schedule perturbation, or packet mutation by the auditor breaks this.
func TestAuditArtifactIdentity(t *testing.T) {
	names := []string{"fig6", "fig8", "fig10", "incast", "loadsweep"}
	maxPts := 4
	if testing.Short() {
		names = []string{"fig6"}
		maxPts = 2
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			pts := spreadPoints(e.Points(), maxPts)
			base := artifactJSON(t, e, pts, 1)
			SetAuditAll(true)
			audited := artifactJSON(t, e, pts, 1)
			SetAuditAll(false)
			worlds := TakeAuditedWorlds()
			if len(worlds) == 0 {
				t.Fatal("no worlds were audited — SetAuditAll not reaching NewFabricWorld")
			}
			if !bytes.Equal(base, audited) {
				t.Errorf("artifact changed with audit tap attached:\noff: %s\non:  %s", base, audited)
			}
		})
	}
}

// TestAuditorPlaintextLeakControl is the negative control on a real
// stack: run the plain TCP fabric (whose wire bytes genuinely are
// plaintext) but tell the auditor to expect ciphertext, simulating an
// encrypted stack that leaks. The auditor must flag the leak — if this
// test fails, the green sweep above is vacuous.
func TestAuditorPlaintextLeakControl(t *testing.T) {
	sys, err := BuildFabric(mustStack("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(4242)
	aud := w.EnableAudit()
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, []*cpusim.Host{w.Client}, w.Server,
		FabricConfig{StreamsPerClient: 2, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		t.Fatal(err)
	}
	// Setup just declared the plain stack's (honest) policy; override it
	// to plant the leak.
	aud.SetExpectCiphertext(true)
	loops = newFabricLoops(w, 1, issue, ChaosRPCSize, ChaosRPCSize)
	runFabricLoops(w, loops, 2)
	w.DrainQuiesce(2 * sim.Second)
	leaks := 0
	for _, v := range aud.Violations() {
		if v.Kind == audit.KindPlaintextLeak {
			leaks++
		}
	}
	if leaks == 0 {
		t.Fatalf("auditor missed a planted plaintext leak (violations: %v)", aud.Violations())
	}
}
