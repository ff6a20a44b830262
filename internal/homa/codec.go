// Package homa implements a Homa-like receiver-driven message transport
// [Montazeri et al., SIGCOMM'18; Ousterhout, ATC'21]: unordered messages
// within a flow 5-tuple, unscheduled first-RTT data, GRANT-based receiver
// pacing, RESEND-based loss recovery, per-message CPU-core steering (the
// SRPT idea), and TSO-friendly segmentation using the overlay-TCP packet
// format of Figure 1/3.
//
// The engine is deliberately generic over a Codec: vanilla Homa uses the
// identity codec; SMT (internal/core) plugs in a codec that frames TLS
// records, encrypts in software or builds NIC-offload descriptors, and
// enforces message-ID uniqueness. This mirrors the paper's implementation
// strategy — SMT is a patch to Homa, not a separate stack.
package homa

import (
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
)

// Codec transforms message bytes to segment payloads and back, and owns
// the security checks. Implementations must be deterministic: both ends
// derive identical segmentation from (message length, offset).
type Codec interface {
	// SegSpan is the maximum plaintext message bytes per TSO segment.
	SegSpan() int
	// WireLen returns the segment payload length carrying plaintext
	// [off, off+n) of a message.
	WireLen(off, n int) int
	// Encode builds the segment payload for message bytes msg[off:off+n)
	// of message msgID destined for queue. It returns the encoded
	// segment and the CPU cost of building it (framing, software crypto
	// or offload metadata).
	Encode(msgID uint64, msg []byte, off, n, queue int, retransmit bool) (Segment, sim.Time)
	// DecodeTo converts a reassembled segment payload back to plaintext
	// message bytes, appends them to dst and returns the extended slice,
	// plus the CPU cost (software decryption). dst's existing bytes are
	// never modified, and on error the returned slice is dst. It writes
	// at most len(seg) bytes past len(dst), so a dst with that much spare
	// capacity is never reallocated. An error marks the segment
	// corrupted; the transport recovers it via RESEND.
	DecodeTo(dst []byte, msgID uint64, msgLen, off int, seg []byte) ([]byte, sim.Time, error)
	// AcceptMessage is consulted when the first packet of an unseen
	// message ID arrives. Rejected messages (replays) are dropped
	// without decryption (§6.1).
	AcceptMessage(msgID uint64) error
}

// Segment is a codec-encoded TSO segment ready for NIC submission.
type Segment struct {
	Payload []byte
	Records []nicsim.RecordDesc
	CtxID   uint64
	Keys    *tlsrec.AEAD
	Resync  bool
	// Release, when non-nil, recycles the segment (and any codec-owned
	// payload scratch backing it) once the NIC has copied the payload
	// out. The transport threads it through to nicsim.TxSegment.Release;
	// after it runs, Payload and Records must not be touched.
	Release func()
}

// PlainCodec is vanilla Homa: payload bytes go on the wire untouched.
// The zero value is ready to use.
type PlainCodec struct {
	// Span overrides the default plaintext-per-segment span when >0.
	Span int
}

// DefaultSegSpan is the plaintext bytes carried per TSO segment. It is
// chosen so both plain Homa and SMT cut messages at the same offsets (4
// records of 16000 B for SMT), keeping segmentation deterministic and the
// two systems comparable.
const DefaultSegSpan = 64000

// SegSpan implements Codec.
func (c *PlainCodec) SegSpan() int {
	if c.Span > 0 {
		return c.Span
	}
	return DefaultSegSpan
}

// WireLen implements Codec: identity.
func (c *PlainCodec) WireLen(off, n int) int { return n }

// Encode implements Codec: the segment payload aliases the message bytes
// and Release stays nil, so the NIC's cut packets alias them too. That is
// safe because the socket keeps its send copy alive until the ACK, by
// which time the receiver has consumed every first-transmission packet,
// and never recycles the copy of a message with a resubmitted segment,
// whose resubmission may still be queued when the ACK lands.
func (c *PlainCodec) Encode(msgID uint64, msg []byte, off, n, queue int, retransmit bool) (Segment, sim.Time) {
	return Segment{Payload: msg[off : off+n]}, 0
}

// DecodeTo implements Codec: identity, zero extra cost.
func (c *PlainCodec) DecodeTo(dst []byte, msgID uint64, msgLen, off int, seg []byte) ([]byte, sim.Time, error) {
	return append(dst, seg...), 0, nil
}

// AcceptMessage implements Codec: plain Homa has no replay protection —
// the paper's point that Homa alone does not guarantee message integrity
// or uniqueness (§7 "Message integrity").
func (c *PlainCodec) AcceptMessage(msgID uint64) error { return nil }
