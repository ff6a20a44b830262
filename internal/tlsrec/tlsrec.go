// Package tlsrec implements the TLS 1.3 record protection layer used by
// SMT and the baselines: AES-GCM AEAD with the RFC 8446 nonce
// construction, record framing, padding-based length concealment, and the
// two record-sequence-number schemes of the paper's Figure 4 that the
// stacks use:
//
//   - TLS/TCP: one per-connection 64-bit counter,
//   - SMT: a composite number (message ID ‖ intra-message record index).
//
// Figure 4's third, QUIC's per-packet number, is not modelled: no
// transport here numbers its records per packet.
//
// It also provides the replay guards SMT needs: per-message in-order
// record tracking and session-wide message-ID uniqueness (§4.4, §6.1).
package tlsrec

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"smt/internal/wire"
)

// Key sizes supported by the record layer.
const (
	Key128 = 16 // AES-128-GCM, the evaluation default
	Key256 = 32 // AES-256-GCM, §7 post-quantum note
)

// Keys is one endpoint's keying material after the TLS 1.3 handshake:
// one AEAD key and IV per direction.
type Keys struct {
	TxKey, TxIV []byte // protects what this endpoint sends
	RxKey, RxIV []byte // verifies what it receives
}

// Errors surfaced by record processing.
var (
	ErrAuthFailed   = errors.New("tlsrec: record authentication failed")
	ErrBadRecord    = errors.New("tlsrec: malformed record")
	ErrRecordTooBig = errors.New("tlsrec: plaintext exceeds maximum record size")
	ErrReplay       = errors.New("tlsrec: replayed message ID")
	ErrOverflow     = errors.New("tlsrec: sequence component exceeds allocated bits")
)

// AEAD is one direction of a record protection state: an AES-GCM key plus
// the per-direction static IV from the TLS 1.3 key schedule. The nonce
// for each record is IV XOR seq (RFC 8446 §5.3); callers provide seq
// according to their scheme.
type AEAD struct {
	aead cipher.AEAD
	iv   [wire.GCMNonceLen]byte
	// nbuf is the per-call nonce scratch: a slice of a struct field does
	// not escape per call, where a stack [12]byte passed through the
	// cipher.AEAD interface would — one allocation per record. AEADs are
	// single-goroutine like everything else in a simulated world.
	nbuf [wire.GCMNonceLen]byte
}

// NewAEAD builds record protection from a key (16 or 32 bytes) and a
// 12-byte static IV.
func NewAEAD(key, iv []byte) (*AEAD, error) {
	if len(key) != Key128 && len(key) != Key256 {
		return nil, fmt.Errorf("tlsrec: bad key length %d", len(key))
	}
	if len(iv) != wire.GCMNonceLen {
		return nil, fmt.Errorf("tlsrec: bad IV length %d", len(iv))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	g, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	a := &AEAD{aead: g}
	copy(a.iv[:], iv)
	return a, nil
}

// Nonce computes the per-record nonce: the 64-bit sequence number is
// left-padded to 12 bytes and XORed with the static IV.
func (a *AEAD) Nonce(seq uint64) [wire.GCMNonceLen]byte {
	n := a.iv
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	for i := 0; i < 8; i++ {
		n[4+i] ^= s[i]
	}
	return n
}

// nonceInto computes the nonce into the AEAD's scratch field and returns
// it as a slice — the allocation-free form the record paths use.
func (a *AEAD) nonceInto(seq uint64) []byte {
	a.nbuf = a.Nonce(seq)
	return a.nbuf[:]
}

// Overhead is the per-record expansion: header plus authentication tag.
const Overhead = wire.RecordHeaderLen + wire.GCMTagLen

// zeros is the shared source for RFC 8446 zero padding: chunked appends
// from it replace byte-at-a-time padding loops on the seal path.
var zeros [1024]byte

// appendZeros appends n zero bytes to dst in chunks.
func appendZeros(dst []byte, n int) []byte {
	for n > 0 {
		k := n
		if k > len(zeros) {
			k = len(zeros)
		}
		dst = append(dst, zeros[:k]...)
		n -= k
	}
	return dst
}

// SealRecord encrypts plaintext as one TLS 1.3 record with sequence
// number seq and appends header‖ciphertext‖tag to dst. padLen zero bytes
// of RFC 8446 padding are included for length concealment. The inner
// content type is contentType (RecordTypeApplicationData on the data
// path).
func (a *AEAD) SealRecord(dst []byte, seq uint64, contentType byte, plaintext []byte, padLen int) ([]byte, error) {
	return a.SealRecordParts(dst, seq, contentType, plaintext, nil, padLen)
}

// SealRecordParts is SealRecord over a plaintext given in two parts,
// head ‖ body, sealed as one record. A stream codec seals a message's
// length prefix with its first bytes this way, without first copying
// the two into one buffer.
func (a *AEAD) SealRecordParts(dst []byte, seq uint64, contentType byte, head, body []byte, padLen int) ([]byte, error) {
	inner := len(head) + len(body) + 1 + padLen // TLSInnerPlaintext: content ‖ type ‖ zeros
	if inner > wire.MaxTLSRecord+1 {
		return nil, ErrRecordTooBig
	}
	hdr := wire.RecordHeader{
		ContentType: wire.RecordTypeApplicationData,
		Length:      uint16(inner + wire.GCMTagLen),
	}
	hdrStart := len(dst)
	dst = hdr.AppendTo(dst)

	// Build the inner plaintext in place at the tail of dst.
	at := len(dst)
	dst = append(dst, head...)
	dst = append(dst, body...)
	dst = append(dst, contentType)
	dst = appendZeros(dst, padLen)
	// Re-slice the AAD after the appends: they may have grown dst.
	aad := dst[hdrStart : hdrStart+wire.RecordHeaderLen]
	sealed := a.aead.Seal(dst[:at], a.nonceInto(seq), dst[at:], aad)
	return sealed, nil
}

// OpenRecord authenticates and decrypts one record (header included) with
// sequence number seq, returning the inner plaintext (padding stripped)
// and its content type. The returned slice aliases freshly allocated
// memory, never record.
func (a *AEAD) OpenRecord(seq uint64, record []byte) (plaintext []byte, contentType byte, err error) {
	return a.OpenRecordTo(nil, seq, record)
}

// OpenRecordTo is OpenRecord's appending form: the decrypted inner
// plaintext (padding stripped) is appended to dst and the extended slice
// returned, so callers draining many records can reuse one scratch
// buffer instead of allocating per record. On error dst is returned
// unchanged (no partial append).
func (a *AEAD) OpenRecordTo(dst []byte, seq uint64, record []byte) (plaintext []byte, contentType byte, err error) {
	var hdr wire.RecordHeader
	if err := hdr.DecodeFromBytes(record); err != nil {
		return dst, 0, ErrBadRecord
	}
	if int(hdr.Length)+wire.RecordHeaderLen > len(record) {
		return dst, 0, ErrBadRecord
	}
	aad := record[:wire.RecordHeaderLen]
	ct := record[wire.RecordHeaderLen : wire.RecordHeaderLen+int(hdr.Length)]
	base := len(dst)
	out, err := a.aead.Open(dst[:base], a.nonceInto(seq), ct, aad)
	if err != nil {
		return dst, 0, ErrAuthFailed
	}
	// Strip RFC 8446 zero padding from the right, then the content type.
	inner := out[base:]
	i := len(inner)
	for i > 0 && inner[i-1] == 0 {
		i--
	}
	if i == 0 {
		return dst, 0, ErrBadRecord // all padding, no content type
	}
	return out[:base+i-1], inner[i-1], nil
}

// RecordWireLen returns the serialized length of one record carrying n
// plaintext bytes and padLen bytes of padding.
func RecordWireLen(n, padLen int) int { return Overhead + n + 1 + padLen }
