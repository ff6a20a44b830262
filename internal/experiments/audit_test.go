package experiments

import (
	"bytes"
	"strings"
	"testing"

	"smt/internal/audit"
	"smt/internal/cpusim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/wire"
)

// This file is the auditor's acceptance bar over the registry: every
// registered experiment must run green under the wire-compliance tap
// (no invariant violations, conserved bytes, no pooled-packet leaks),
// and because the tap is a pure observer, the artifacts must stay
// byte-identical with auditing on. Auditing is a value of the run
// (RunOptions.Audit), so these tests run in parallel with each other's
// subtests. Full-mode TestDeterministicArtifacts also audits and
// settles every deterministic point once; the tests here check a spread
// of each experiment and name the property that failed. The settlement's
// own test and the negative control at the bottom prove the bar has
// teeth: a deliberately planted plaintext leak must be flagged.

// drainSpread is the spread of e's points the two settlement tests
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

// checkSettled runs pts audited and asserts the full invariant set on
// each point's settlement: zero violations (plaintext, nonce/keystream
// reuse, framing), every world quiesced with its bytes conserved, no
// pooled packet outstanding, and packets seen in every audited world —
// at least one of which a world-building experiment must have built.
func checkSettled(t *testing.T, e Experiment, pts []Point) {
	t.Helper()
	for _, r := range RunPoints(e, pts, RunOptions{Workers: 1, Audit: true}) {
		s := r.Audit
		if s == nil || r.Err != s.failure() {
			t.Fatalf("%s point %q failed under audit: %s", e.Name(), r.Key, r.Err)
		}
		if s.Violations != 0 {
			t.Errorf("%s: %d violations", r.Key, s.Violations)
			for _, v := range s.Recorded {
				t.Errorf("%s: %s", r.Key, v)
			}
		}
		if s.Stuck != 0 {
			t.Errorf("%s: %d worlds did not quiesce", r.Key, s.Stuck)
		}
		if s.Leaked != 0 {
			t.Errorf("%s: %d pooled packets outstanding at quiescence", r.Key, s.Leaked)
		}
		if s.Silent != 0 {
			t.Errorf("%s: %d audited worlds saw no packets — tap not attached?", r.Key, s.Silent)
		}
		if (s.Worlds == 0) != analytic[e.Name()] {
			t.Errorf("%s: %d worlds audited (analytic experiment: %v)", r.Key, s.Worlds, analytic[e.Name()])
		}
	}
}

// TestAuditorGreenAcrossRegistry runs checkSettled over every registered
// experiment's share of drainSpread.
func TestAuditorGreenAcrossRegistry(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; no simulated wire to audit")
			}
			t.Parallel()
			pts, _ := drainSpread(e)
			checkSettled(t, e, pts)
		})
	}
}

// TestPacketPoolLeakFreedom asserts, for every registered experiment,
// that a drained world returns every pooled packet: the zero-allocation
// data path recycles packets through wire.PacketPool, so any code path
// that loses a reference (a dropped retransmit, an abandoned
// reassembly, a dead connection's queue) shows up here as a nonzero
// outstanding count. It runs checkSettled on the last point of
// drainSpread, the one TestAuditorGreenAcrossRegistry leaves to it.
func TestPacketPoolLeakFreedom(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; no simulated network")
			}
			t.Parallel()
			_, pts := drainSpread(e)
			checkSettled(t, e, pts)
		})
	}
}

// TestAuditArtifactIdentity pins the observer contract end to end on
// the headline experiments: their seeded JSON artifacts are
// byte-identical from a serial run with the audit tap attached and one
// without it. Any engine RNG draw, schedule perturbation, or packet
// mutation by the auditor breaks this.
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
			t.Parallel()
			pts := spreadPoints(e.Points(), maxPts)
			base := artifactJSON(t, e, pts, RunOptions{Workers: 1})
			audited := artifactJSON(t, e, pts, RunOptions{Workers: 1, Audit: true})
			if !bytes.Equal(base, audited) {
				t.Errorf("artifact changed with audit tap attached:\noff: %s\non:  %s", base, audited)
			}
		})
	}
}

// TestSettleCountsStuckWorld plants one violation in a world that can
// never quiesce (a timer re-arms itself forever). Settlement must
// report the world as stuck and still count and record the violation,
// and must not check conservation or leaks on a world still running.
func TestSettleCountsStuckWorld(t *testing.T) {
	w := NewWorld(1)
	aud := w.EnableAudit()
	body := make([]byte, 32)
	for i := range body {
		body[i] = byte(i)
	}
	// A record header whose body has not all arrived, then the RPC body
	// pattern: the stream tracker waits for the rest of the record, so
	// the plaintext leak is the only violation.
	hdr := wire.RecordHeader{ContentType: wire.RecordTypeApplicationData, Length: 4096}
	aud.PacketDelivered(&wire.Packet{
		IP:      wire.IPv4Header{Src: wire.HostAddr(0), Dst: wire.HostAddr(1), Protocol: wire.ProtoTCP},
		Overlay: wire.OverlayHeader{Type: wire.TypeData},
		Payload: append(hdr.AppendTo(nil), body...),
	}, false)
	var tick func()
	tick = func() { w.Eng.After(sim.Millisecond, tick) }
	w.Eng.After(0, tick)

	s := settle(w)
	if s.Stuck != 1 {
		t.Errorf("Stuck = %d, want 1", s.Stuck)
	}
	if s.Violations != 1 || len(s.Recorded) != 1 || s.Recorded[0].Kind != audit.KindPlaintextLeak {
		t.Fatalf("settlement recorded %d violations %v, want the one planted plaintext leak (conservation must not be checked on a stuck world)",
			s.Violations, s.Recorded)
	}
	if s.Leaked != 0 {
		t.Errorf("Leaked = %d on a world that never quiesced, want 0 (not counted)", s.Leaked)
	}
	if f := s.failure(); !strings.HasPrefix(f, "audit: 1 violations") || !strings.Contains(f, "1 worlds failed to quiesce") {
		t.Errorf("failure() = %q", f)
	}
}

// TestAuditorPlaintextLeakControl is the negative control on a real
// stack: run the plain TCP fabric (whose wire bytes genuinely are
// plaintext) but tell the auditor to expect ciphertext, simulating an
// encrypted stack that leaks. The auditor must flag the leak — if this
// test fails, the green sweeps above are vacuous.
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
	leaks := 0
	for _, v := range settle(w).Recorded {
		if v.Kind == audit.KindPlaintextLeak {
			leaks++
		}
	}
	if leaks == 0 {
		t.Fatalf("auditor missed a planted plaintext leak (violations: %v)", aud.Violations())
	}
}
