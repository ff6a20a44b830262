package tlsrec

import (
	"fmt"
	"math"

	"smt/internal/idmap"
)

// BitAllocation describes how SMT splits the 64-bit TLS record sequence
// number into a message-ID field (upper bits) and an intra-message record
// index (lower bits) — §4.4.1 and Figure 5. The low-bit placement of the
// record index is what lets a NIC's self-incrementing counter advance the
// composite number exactly like a TLS/TCP sequence number.
type BitAllocation struct {
	MsgIDBits  int // bits for the session-unique message ID
	RecIdxBits int // bits for the record index within a message
}

// DefaultAllocation is the paper's implementation choice: 48-bit message
// IDs and 16-bit record indexes (≈98 MB messages with 1.5 KB records,
// ≈1 GB with 16 KB records; 281 T messages per session).
var DefaultAllocation = BitAllocation{MsgIDBits: 48, RecIdxBits: 16}

// Valid reports whether the allocation uses exactly 64 bits with at least
// one bit on each side.
func (a BitAllocation) Valid() bool {
	return a.MsgIDBits >= 1 && a.RecIdxBits >= 1 && a.MsgIDBits+a.RecIdxBits == 64
}

// Compose builds the composite record sequence number for record recIdx of
// message msgID. It fails if either component overflows its field — for
// the record index that is the §4.4.1 "message too large for the
// allocation" condition.
func (a BitAllocation) Compose(msgID, recIdx uint64) (uint64, error) {
	if !a.Valid() {
		return 0, fmt.Errorf("tlsrec: invalid bit allocation %+v", a)
	}
	if a.MsgIDBits < 64 && msgID >= 1<<uint(a.MsgIDBits) {
		return 0, fmt.Errorf("%w: message ID %d needs more than %d bits", ErrOverflow, msgID, a.MsgIDBits)
	}
	if recIdx >= 1<<uint(a.RecIdxBits) {
		return 0, fmt.Errorf("%w: record index %d needs more than %d bits", ErrOverflow, recIdx, a.RecIdxBits)
	}
	return msgID<<uint(a.RecIdxBits) | recIdx, nil
}

// Split decomposes a composite sequence number.
func (a BitAllocation) Split(seq uint64) (msgID, recIdx uint64) {
	return seq >> uint(a.RecIdxBits), seq & (1<<uint(a.RecIdxBits) - 1)
}

// MaxMessages returns the number of distinct message IDs the allocation
// supports (as float64: it exceeds uint64 range only when MsgIDBits=64,
// which Valid rejects anyway).
func (a BitAllocation) MaxMessages() float64 {
	return math.Exp2(float64(a.MsgIDBits))
}

// MaxMessageSize returns the maximum message size in bytes given a record
// payload size (e.g. 1500 for small records, 16 KB for full-size ones).
func (a BitAllocation) MaxMessageSize(recordSize int) float64 {
	return math.Exp2(float64(a.RecIdxBits)) * float64(recordSize)
}

// String renders the allocation as "48+16".
func (a BitAllocation) String() string {
	return fmt.Sprintf("%d+%d", a.MsgIDBits, a.RecIdxBits)
}

// MsgIDGuard enforces message-ID uniqueness across a secure session
// (§4.4.1, non-replayability in §6.1). IDs may arrive out of order
// (messages are delivered unordered), so the guard keeps a contiguous
// floor plus a sparse set of IDs seen above it; the floor advances as
// gaps fill, bounding memory by the reordering window rather than the
// session length.
type MsgIDGuard struct {
	floor uint64              // all IDs < floor have been seen
	above idmap.Map[struct{}] // IDs >= floor seen so far
}

// NewMsgIDGuard returns a guard with no messages seen.
func NewMsgIDGuard() *MsgIDGuard { return &MsgIDGuard{} }

// Accept records id as seen. It returns ErrReplay if the session has
// already accepted a message with this ID — the receiver then discards
// the message without decrypting, like TCP discards a past sequence
// number (§6.1). An ID that arrives in order with nothing pending only
// advances the floor.
func (g *MsgIDGuard) Accept(id uint64) error {
	if id == g.floor && g.above.Len() == 0 {
		g.floor++
		return nil
	}
	if g.Seen(id) {
		return fmt.Errorf("%w: id %d", ErrReplay, id)
	}
	g.above.Put(id, struct{}{})
	for {
		if _, ok := g.above.Delete(g.floor); !ok {
			return nil
		}
		g.floor++
	}
}

// Seen reports whether id has been accepted before.
func (g *MsgIDGuard) Seen(id uint64) bool {
	return id < g.floor || g.above.Has(id)
}

// Pending reports the number of IDs tracked above the contiguous floor
// (the memory footprint of the reordering window).
func (g *MsgIDGuard) Pending() int { return g.above.Len() }

// Reset clears the guard, as a key rotation that restarts the message-ID
// space would (§4.5.2). SMT itself never calls it: resumption registers a
// new session (core.Socket.RegisterSession), whose fresh codec carries a
// fresh guard.
func (g *MsgIDGuard) Reset() { *g = MsgIDGuard{} }
