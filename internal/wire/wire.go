// Package wire defines the on-the-wire formats used by the SMT
// reproduction: an IPv4 network header and the overlay-TCP transport
// header shared by Homa and SMT (Figure 3 of the paper), plus the TLS
// record header and the per-record framing header.
//
// The paper's key format trick is that the transport header *overlays* a
// TCP header — the first 20 bytes line up with TCP's common header and the
// following 20 bytes sit in TCP options space — so commodity-NIC TSO
// replicates the shaded fields (message ID, message length, TSO offset)
// onto every derived packet, and TLS autonomous offload can encrypt the
// payload region.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Sizes of the fixed-length headers, in bytes.
const (
	IPv4HeaderLen    = 20
	OverlayHeaderLen = 40 // 20 B TCP common header + 20 B options space
	FramingHeaderLen = 4  // application-data length, one per TLS record
	RecordHeaderLen  = 5  // TLS 1.3 record header (type, version, length)
	GCMTagLen        = 16 // AEAD authentication tag
	GCMNonceLen      = 12 // AES-GCM nonce (IV XOR record sequence number)
)

// Protocol numbers carried in the IPv4 header. Homa and SMT are *native*
// transports: they use their own numbers rather than hiding behind TCP's.
const (
	ProtoTCP  = 6
	ProtoHoma = 146 // experimental, matches Homa/Linux usage
	ProtoSMT  = 147 // SMT native protocol number
)

// Transport limits from the paper (§4.3).
const (
	MaxTLSRecord  = 16 * 1024 // maximum TLS record payload
	MaxTSOSegment = 64 * 1024 // maximum TSO segment handed to the NIC
	DefaultMTU    = 1500      // evaluation default
	JumboMTU      = 9000      // §5.2 "impact of a larger MTU"
)

// HostAddr is the fabric addressing convention: host index i (0-based)
// lives at address i+1, so the two-host testbed's client/server sit at
// 1 and 2 and an N-host topology occupies 1..N. Address 0 is never a
// host (it reads as "unset" in packet headers).
func HostAddr(i int) uint32 { return uint32(i) + 1 }

// PacketType distinguishes the overlay-header packets. DATA carries
// (possibly encrypted) message bytes; the control types mirror Homa's
// protocol (GRANT ≈ NDP PULL, RESEND ≈ NDP NACK).
type PacketType uint8

// Overlay packet types.
const (
	TypeData PacketType = iota + 1
	TypeGrant
	TypeResend
	TypeAck
	TypeHandshake // carries key-exchange payloads (§4.2, §4.5)
)

// String returns the conventional name of the packet type.
func (t PacketType) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeGrant:
		return "GRANT"
	case TypeResend:
		return "RESEND"
	case TypeAck:
		return "ACK"
	case TypeHandshake:
		return "HANDSHAKE"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// FlagRetransmit is the overlay header flag bit marking a payload as a
// retransmission (§4.3).
const FlagRetransmit = 1

// ErrTruncated is returned when a header decoder's buffer is too short.
var ErrTruncated = errors.New("wire: buffer too short")

// IPv4Header is the 20-byte network header (no options). The Homa/SMT
// stacks use the ID field as the intra-TSO-segment packet offset: NIC TSO
// increments IPID on every packet it cuts from a segment, which is exactly
// the sequence the receiver needs to reassemble the segment (§4.3).
type IPv4Header struct {
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst uint32
}

// OverlayHeader is the 40-byte Homa/SMT transport header from Figure 3.
//
// Layout (big-endian), with the TCP field each word overlays in brackets:
//
//	 0                15                31
//	+--------+--------+--------+--------+
//	| src port        | dst port        |  [TCP ports]
//	| hw seqno (unused, NIC may write)  |  [TCP sequence number]
//	| type   (unused)                   |  [TCP acknowledgment number]
//	| doff|fl| flags  | window (unused) |  [TCP doff/flags/window]
//	| checksum        | TSO off (low16) |  [TCP checksum / urgent ptr]
//	| message ID (hi)                   |  [options.................
//	| message ID (lo)                   |   ........................
//	| message length                    |   ........................
//	| TSO off (hi16)  | resend pkt off  |   ........................
//	| aux (grant off / resend len)      |   ................options]
//	+--------+--------+--------+--------+
//
// Fields in options space are replicated across all packets that TSO cuts
// from one segment; the IPv4 ID distinguishes the packets.
type OverlayHeader struct {
	SrcPort, DstPort uint16
	Type             PacketType
	Flags            uint8
	MsgID            uint64
	MsgLen           uint32
	TSOOffset        uint32 // offset of this TSO segment within the message
	ResendPktOff     uint16 // original packet offset within segment, for retransmits
	Aux              uint32 // GRANT: grant offset; RESEND: length; others: 0
}

// FramingHeader precedes each TLS record's plaintext in a DATA segment and
// carries the application-data length of the record (§4.3). It stays in
// plaintext so the receiver can reassemble records from packets; §4.3
// notes it could be removed (see the framing ablation).
type FramingHeader struct {
	AppDataLen uint32
}

// AppendTo serializes f, appending FramingHeaderLen bytes to b.
func (f *FramingHeader) AppendTo(b []byte) []byte {
	var buf [FramingHeaderLen]byte
	binary.BigEndian.PutUint32(buf[:], f.AppDataLen)
	return append(b, buf[:]...)
}

// DecodeFromBytes parses a framing header from data.
func (f *FramingHeader) DecodeFromBytes(data []byte) error {
	if len(data) < FramingHeaderLen {
		return ErrTruncated
	}
	f.AppDataLen = binary.BigEndian.Uint32(data[:FramingHeaderLen])
	return nil
}

// TLS record content types (RFC 8446 §5.1); only ApplicationData appears
// on SMT's data path, the rest exist for handshake transcripts.
const (
	RecordTypeHandshake       = 22
	RecordTypeApplicationData = 23
	RecordTypeAlert           = 21
)

// RecordHeader is the 5-byte TLS record header. Version is fixed to
// 0x0303 (TLS 1.2 compatibility value used by TLS 1.3).
type RecordHeader struct {
	ContentType uint8
	Length      uint16 // ciphertext length including the 16-byte tag
}

// AppendTo serializes r, appending RecordHeaderLen bytes to b.
func (r *RecordHeader) AppendTo(b []byte) []byte {
	return append(b, r.ContentType, 0x03, 0x03, byte(r.Length>>8), byte(r.Length))
}

// DecodeFromBytes parses a TLS record header from data.
func (r *RecordHeader) DecodeFromBytes(data []byte) error {
	if len(data) < RecordHeaderLen {
		return ErrTruncated
	}
	r.ContentType = data[0]
	r.Length = binary.BigEndian.Uint16(data[3:5])
	return nil
}
