// Package dcdns models the datacenter-internal DNS resolver that
// distributes SMT-tickets (§4.5.2): the operator's CA doubles as the
// resolver, serving each service's long-term ECDH share, certificate and
// signature so clients can start 0-RTT exchanges without contacting the
// server first. Tickets carry a validity window; the reference policy
// rotates hourly to bound the 0-RTT replay exposure (§4.5.3).
package dcdns

import (
	"fmt"

	"smt/internal/handshake"
	"smt/internal/sim"
)

// DefaultTTL is the recommended maximum ticket lifetime (§4.5.3).
const DefaultTTL = sim.Time(3600) * sim.Second

// Resolver maps service names to SMT-tickets.
type Resolver struct {
	eng     *sim.Engine
	ttl     sim.Time
	records map[string]*record

	// Query traffic counters. Every successful Query is either a hit
	// (cached ticket still valid) or a miss (the stored ticket expired
	// and a fresh one was minted on the spot); failed lookups count in
	// Lookups only. Rotations counts re-mints, which here equals
	// Misses — kept separate so a future proactive-rotation policy
	// (re-mint on a timer, before any client misses) stays observable.
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Rotations uint64
}

type record struct {
	id     *handshake.Identity
	ticket *handshake.Ticket
}

// New creates a resolver with the given ticket TTL (0 = DefaultTTL).
func New(eng *sim.Engine, ttl sim.Time) *Resolver {
	if ttl == 0 {
		ttl = DefaultTTL
	}
	return &Resolver{eng: eng, ttl: ttl, records: make(map[string]*record)}
}

// Register publishes a service identity under name, minting its first
// ticket.
func (r *Resolver) Register(name string, id *handshake.Identity) error {
	t, err := handshake.NewTicket(id, r.eng.Now()+r.ttl)
	if err != nil {
		return err
	}
	r.records[name] = &record{id: id, ticket: t}
	return nil
}

// Lookup returns the current SMT-ticket for name, re-minting it if the
// stored one expired (hourly rotation).
func (r *Resolver) Lookup(name string) (*handshake.Ticket, error) {
	t, _, err := r.Query(name)
	return t, err
}

// Query is Lookup plus the hit/miss verdict: hit is false when the
// stored ticket had expired and the returned one was minted fresh. A
// ticket is valid through its Expiry instant (mirroring Ticket.Verify,
// which rejects only now > Expiry), so a query at exactly Now() ==
// Expiry is still a hit.
func (r *Resolver) Query(name string) (*handshake.Ticket, bool, error) {
	r.Lookups++
	rec, ok := r.records[name]
	if !ok {
		return nil, false, fmt.Errorf("dcdns: no record for %q", name)
	}
	if r.eng.Now() > rec.ticket.Expiry {
		t, err := handshake.NewTicket(rec.id, r.eng.Now()+r.ttl)
		if err != nil {
			return nil, false, err
		}
		rec.ticket = t
		r.Misses++
		r.Rotations++
		return rec.ticket, false, nil
	}
	r.Hits++
	return rec.ticket, true, nil
}
