package experiments

import (
	"sync"

	"smt/internal/audit"
	"smt/internal/sim"
)

// This file wires the wire-compliance auditor (internal/audit) into the
// experiment harness. Auditing is off by default and has zero footprint:
// no tap is attached, no knob changes, and the seeded artifact bytes are
// identical either way (the auditor is a pure observer — see the
// netsim.Tap contract). Two ways in:
//
//   - w.EnableAudit() attaches an auditor to one world (the chaos
//     battery and targeted tests).
//   - SetAuditAll(true) makes every subsequently built fabric world
//     attach one and records the world, so a harness (smtexp -audit,
//     the registry-wide audit test) can sweep existing experiments
//     unchanged and inspect every world afterwards.

var (
	auditMu     sync.Mutex
	auditAll    bool
	auditWorlds []*World
)

// SetAuditAll toggles global auditing of every world NewFabricWorld
// builds from now on. Worlds accumulate until TakeAuditedWorlds drains
// them, so enable only around a bounded run.
func SetAuditAll(v bool) {
	auditMu.Lock()
	defer auditMu.Unlock()
	auditAll = v
}

// TakeAuditedWorlds returns the worlds audited (via SetAuditAll) since
// the last call, and clears the list.
func TakeAuditedWorlds() []*World {
	auditMu.Lock()
	defer auditMu.Unlock()
	ws := auditWorlds
	auditWorlds = nil
	return ws
}

// maybeAuditWorld attaches an auditor when global auditing is on;
// called by NewFabricWorld (worlds built concurrently by the point
// runner all pass through here, hence the lock).
func maybeAuditWorld(w *World) {
	auditMu.Lock()
	defer auditMu.Unlock()
	if !auditAll {
		return
	}
	w.Audit = audit.New()
	w.Net.SetTap(w.Audit)
	auditWorlds = append(auditWorlds, w)
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

// DrainQuiesce runs the world's engine until no events remain or limit
// of additional virtual time passes, and reports whether it quiesced.
// Closed loops stop issuing at their stop time, so a measured world
// normally drains within a few RTOs; conservation and pool-leak checks
// are only meaningful once this returns true.
func (w *World) DrainQuiesce(limit sim.Time) bool {
	deadline := w.Eng.Now() + limit
	for w.Eng.Pending() > 0 && w.Eng.Now() < deadline {
		step := w.Eng.Now() + 10*sim.Millisecond
		if step > deadline {
			step = deadline
		}
		w.Eng.RunUntil(step)
	}
	return w.Eng.Pending() == 0
}
