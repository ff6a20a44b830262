package tlsrec

import "smt/internal/wire"

// SealInPlace encrypts a record laid out inside buf, the way a NIC
// autonomous-offload engine does: the stack has already written the
// 5-byte record header at hdrOff and the inner plaintext (content ‖ type ‖
// padding) right after it, followed by wire.GCMTagLen reserved bytes. The
// engine encrypts the inner region in place with sequence number seq and
// writes the tag into the reserved space. The header is the AAD.
//
// The layout must satisfy: len(buf) >= hdrOff + RecordHeaderLen + innerLen
// + GCMTagLen, and the record header's Length field must equal
// innerLen + GCMTagLen.
func (a *AEAD) SealInPlace(buf []byte, hdrOff, innerLen int, seq uint64) error {
	bodyOff := hdrOff + wire.RecordHeaderLen
	if bodyOff+innerLen+wire.GCMTagLen > len(buf) {
		return ErrBadRecord
	}
	aad := buf[hdrOff:bodyOff]
	inner := buf[bodyOff : bodyOff+innerLen]
	// Seal with exact overlap: output starts where the plaintext starts.
	out := a.aead.Seal(inner[:0], a.nonceInto(seq), inner, aad)
	if &out[0] != &inner[0] {
		// Defensive: stdlib GCM seals in place for exact overlap; if that
		// ever changes, fall back to copying the result back.
		copy(buf[bodyOff:], out)
	}
	return nil
}

// WriteRecordShell writes the record header and inner plaintext for a
// to-be-offloaded record into buf at hdrOff, leaving GCMTagLen zero bytes
// reserved for the tag. It returns the total record wire length. This is
// the transmit-side layout the NIC's SealInPlace later completes. buf must
// be long enough to hold the whole record.
func WriteRecordShell(buf []byte, hdrOff int, contentType byte, plaintext []byte, padLen int) int {
	return WriteRecordShellParts(buf, hdrOff, contentType, plaintext, nil, padLen)
}

// WriteRecordShellParts is WriteRecordShell over a plaintext given in
// two parts, head ‖ body (see SealRecordParts).
func WriteRecordShellParts(buf []byte, hdrOff int, contentType byte, head, body []byte, padLen int) int {
	n := len(head) + len(body)
	innerLen := n + 1 + padLen
	total := wire.RecordHeaderLen + innerLen + wire.GCMTagLen
	ctLen := innerLen + wire.GCMTagLen
	buf[hdrOff] = wire.RecordTypeApplicationData
	buf[hdrOff+1] = 0x03
	buf[hdrOff+2] = 0x03
	buf[hdrOff+3] = byte(ctLen >> 8)
	buf[hdrOff+4] = byte(ctLen)
	at := hdrOff + wire.RecordHeaderLen
	copy(buf[at+copy(buf[at:], head):], body)
	buf[at+n] = contentType
	// Zero the padding and reserved tag space in chunks.
	for i := at + n + 1; i < hdrOff+total; i += copy(buf[i:hdrOff+total], zeros[:]) {
	}
	return total
}
