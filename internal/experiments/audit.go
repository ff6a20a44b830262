package experiments

import (
	"fmt"

	"smt/internal/audit"
	"smt/internal/sim"
)

// This file wires the wire-compliance auditor (internal/audit) into the
// experiment harness. Auditing is a value of the run: with
// RunOptions.Audit set, Experiment.Run hands each point a pointAudit,
// every World the point builds attaches its auditor to it, and the
// point's worlds are settled as soon as it returns (Result.Audit), so no
// audited world outlives its point. Without it no tap is attached. The
// auditor is a pure observer (see the netsim.Tap contract), so the
// seeded artifact bytes are identical either way.

// Settlement is the settled wire audit of one point's worlds: each world
// drained, then checked for byte conservation at quiescence, invariant
// violations and leaked pooled packets.
type Settlement struct {
	Worlds     int               // audited worlds
	Packets    uint64            // packets the taps saw enter the network
	Violations uint64            // every violation, including those past the auditors' recording caps
	Recorded   []audit.Violation // the violations the auditors recorded
	Leaked     int               // pooled packets outstanding at quiescence
	Stuck      int               // worlds that did not quiesce
	Silent     int               // worlds whose tap saw no packet
}

// add folds o into s.
func (s *Settlement) add(o Settlement) {
	s.Worlds += o.Worlds
	s.Packets += o.Packets
	s.Violations += o.Violations
	s.Recorded = append(s.Recorded, o.Recorded...)
	s.Leaked += o.Leaked
	s.Stuck += o.Stuck
	s.Silent += o.Silent
}

// failure describes what the settlement found wrong, "" when it is
// clean.
func (s *Settlement) failure() string {
	if s.Violations == 0 && s.Leaked == 0 && s.Stuck == 0 && s.Silent == 0 {
		return ""
	}
	msg := fmt.Sprintf("audit: %d violations, %d leaked packets, %d worlds failed to quiesce, %d worlds saw no packets",
		s.Violations, s.Leaked, s.Stuck, s.Silent)
	if len(s.Recorded) > 0 {
		msg += "; first: " + s.Recorded[0].String()
	}
	return msg
}

// settle drains w for up to two virtual seconds (closed loops stop
// issuing at their stop time, so a measured world normally drains
// within a few RTOs) and settles its audit. Violations are always
// counted and reported; conservation and leaked packets are checked
// only once the world has quiesced, since packets still queued in a
// switch are neither delivered nor dropped. Settle a world once: a
// second CheckConservation records each conservation violation again.
func settle(w *World) Settlement {
	deadline := w.Eng.Now() + 2*sim.Second
	for w.Eng.Pending() > 0 && w.Eng.Now() < deadline {
		w.Eng.RunUntil(min(w.Eng.Now()+10*sim.Millisecond, deadline))
	}
	s := Settlement{Worlds: 1, Stuck: 1}
	if w.Eng.Pending() == 0 {
		w.Audit.CheckConservation(w.Net)
		s.Leaked, s.Stuck = w.Net.OutstandingPackets(), 0
	}
	st := w.Audit.Stats()
	s.Packets, s.Violations, s.Recorded = st.Packets, st.TotalViolations, w.Audit.Violations()
	if st.Packets == 0 {
		s.Silent = 1
	}
	return s
}

// pointAudit collects the worlds one audited point builds. The Measure*
// functions take it as a trailing variadic argument; code outside the
// package cannot name its type, so RunOptions.Audit is the only way to
// turn auditing on.
type pointAudit struct {
	worlds []*World
	// settled sums the worlds a Measure* call settled itself
	// (MeasureChaos reads its world's settlement into its row).
	settled Settlement
}

// audited returns w, which a Measure* function has just built; passed
// a point's audit, w first attaches an auditor and joins it, before any
// stack declares its policy.
func audited(w *World, pa []*pointAudit) *World {
	for _, a := range pa {
		if a != nil {
			w.EnableAudit()
			a.worlds = append(a.worlds, w)
		}
	}
	return w
}

// settle settles every collected world and returns the point's
// settlement.
func (a *pointAudit) settle() *Settlement {
	s := a.settled
	for _, w := range a.worlds {
		s.add(settle(w))
	}
	a.worlds = nil
	return &s
}

// EnableAudit attaches a fresh auditor to w's network (idempotent) and
// returns it. The auditor expects ciphertext until a stack's Setup
// declares otherwise (every harness built from a StackSpec declares
// through wiring.declare).
func (w *World) EnableAudit() *audit.Auditor {
	if w.Audit == nil {
		w.Audit = audit.New()
		w.Net.SetTap(w.Audit)
	}
	return w.Audit
}
