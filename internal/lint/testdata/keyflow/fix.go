// Package keyfix is analysis-only fixture data for the keyflow
// analyzer: key material (core.SessionKeys, HKDF outputs, drawn P-256
// scalars) flowing into each of the three sink families, the transitive
// flavor through a helper's summary, and the declassification cuts
// (lengths, errors) that keep the rule quiet on legitimate code.
package keyfix

import (
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"smt/internal/core"
	"smt/internal/handshake"
	"smt/internal/hkdfx"
	"smt/internal/wire"
)

// Sink absorbs values so the fixture type-checks.
var Sink any

func errString() error {
	k, _ := hkdf.Expand(sha256.New, []byte("prk"), "info", 16)
	return fmt.Errorf("derived key %x", k) // want "key material flows into a formatted string"
}

// scalarErr reports a drawn private scalar in an error: the scalar is
// a key, though its bytes come from a reader, not from HKDF.
func scalarErr(r io.Reader) error {
	d, err := handshake.DrawScalar(r)
	if err != nil {
		return err
	}
	return fmt.Errorf("drew scalar %x", d) // want "key material flows into a formatted string"
}

func artifact(keys core.SessionKeys) {
	b, _ := json.Marshal(keys.TxKey) // want "key material flows into artifact JSON"
	Sink = b
}

func wireCopy(pkt *wire.Packet, keys *core.SessionKeys) {
	copy(pkt.Payload, keys.RxKey) // want "key material flows into a plaintext wire payload"
}

func payloadBind(pkt *wire.Packet) {
	k, _ := hkdfx.DeriveSecret([]byte("s"), "label", nil)
	pkt.Payload = k // want "key material flows into a plaintext wire payload"
}

// logBytes formats its argument: its parameter is sink-reaching, so
// callers handing it key material are flagged at their call site.
func logBytes(b []byte) {
	Sink = fmt.Sprintf("%x", b)
}

func transitive() {
	k, _ := hkdf.Extract(sha256.New, []byte("ikm"), nil)
	logBytes(k) // want "a secret sink inside logBytes"
}

// lenOnly is a negative: the length of a key is not key material
// (len is a declassification cut).
func lenOnly() {
	k, _ := hkdf.Expand(sha256.New, []byte("prk"), "", 32)
	Sink = fmt.Sprintf("%d", len(k))
}

type box struct{ key []byte }

func mkBox(k []byte) (*box, error) {
	return &box{key: k}, nil
}

// errFromSecretCtor is a negative: a constructor's error result is a
// string, not key bytes — error values carry no taint even when the
// call's other results do, a source's own included.
func errFromSecretCtor() error {
	k, err := hkdf.Key(sha256.New, []byte("ikm"), nil, "", 16)
	if err != nil {
		return fmt.Errorf("hkdf: %w", err)
	}
	b, err := mkBox(k)
	if err != nil {
		return fmt.Errorf("mkBox: %w", err)
	}
	Sink = b
	return nil
}
