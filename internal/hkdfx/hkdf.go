// Package hkdfx implements TLS 1.3's HKDF-Expand-Label and Derive-Secret
// (RFC 8446 §7.1) over crypto/hkdf with SHA-256, and the HkdfLabel
// encoding they share with the handshake's merged key schedule.
package hkdfx

import (
	"crypto/hkdf"
	"crypto/sha256"
)

// AppendHkdfLabel appends RFC 8446's HkdfLabel for an output of length
// bytes to b and returns the extended slice:
//
//	struct {
//	    uint16 length;
//	    opaque label<7..255> = "tls13 " + Label;
//	    opaque context<0..255>;
//	} HkdfLabel;
func AppendHkdfLabel(b []byte, length int, label string, context []byte) []byte {
	const prefix = "tls13 "
	b = append(b, byte(length>>8), byte(length), byte(len(prefix)+len(label)))
	b = append(append(b, prefix...), label...)
	return append(append(b, byte(len(context))), context...)
}

// ExpandLabel is RFC 8446's HKDF-Expand-Label: HKDF-Expand of secret
// with the HkdfLabel as info. It returns crypto/hkdf's error, such as
// the one for a length past 255 hash blocks.
func ExpandLabel(secret []byte, label string, context []byte, length int) ([]byte, error) {
	return hkdf.Expand(sha256.New, secret, string(AppendHkdfLabel(nil, length, label, context)), length)
}

// DeriveSecret is RFC 8446's Derive-Secret: ExpandLabel with the SHA-256
// transcript hash of messages as context and hash-length output.
func DeriveSecret(secret []byte, label string, transcript []byte) ([]byte, error) {
	h := sha256.Sum256(transcript)
	return ExpandLabel(secret, label, h[:], sha256.Size)
}
