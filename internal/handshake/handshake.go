// Package handshake implements SMT's key exchange (§4.5): the standard
// TLS 1.3 1-RTT handshake, session resumption, and the SMT-ticket 0-RTT
// exchange with and without forward secrecy, plus the Table 2 per-
// operation cost breakdown.
//
// Functional fidelity: ECDH key agreement (P-256), ECDSA signatures and
// the HKDF schedule run for real — the derived keys are real AEAD keys a
// caller can register on an SMT socket. Timing fidelity: in-simulation
// operation costs are charged from the paper's Table 2 measurements
// (picotls on the authors' Xeon), recorded in OpCosts; MeasureTable2
// additionally benchmarks this machine's Go crypto for the same rows.
package handshake

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/big"

	"smt/internal/core"
	"smt/internal/hkdfx"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// Op identifies one Table 2 handshake operation.
type Op int

// Table 2 rows (server S*, client C*).
const (
	S1ProcessCHLO Op = iota
	S2p1KeyGen
	S2p2ECDH
	S2p3SHLOGen
	S2p4EECertEncode
	S2p5CertVerifyGen
	S2p6SecretDerive
	S3ProcessFinished
	C1p1KeyGen
	C1p2OthersGen
	C2p1ProcessSHLO
	C2p2ECDH
	C2p3SecretDerive
	C3p1DecodeCert
	C3p2VerifyCert
	C4p1BuildSignData
	C4p2VerifyCertVerify
	C5ProcessFinished
	numOps
)

// opNames gives the Table 2 labels.
var opNames = [numOps]string{
	"S1 Process CHLO", "S2.1 Key Gen", "S2.2 ECDH Exchange", "S2.3 SHLO Gen",
	"S2.4 EE & Cert Encode", "S2.5 CertVerify Gen", "S2.6 Secret Derive",
	"S3 Process Finished",
	"C1.1 Key Gen", "C1.2 Others Gen", "C2.1 Process SHLO", "C2.2 ECDH Exchange",
	"C2.3 Secret Derive", "C3.1 Decode Cert", "C3.2 Verify Cert",
	"C4.1 Build Sign Data", "C4.2 Verify CertVerify", "C5 Process Finished",
}

// Name returns the Table 2 label for the operation.
func (o Op) Name() string { return opNames[o] }

// OpCosts are the paper's Table 2 measurements in nanoseconds (ECDSA-256
// variant for the signature rows). They drive the in-simulation charge
// for each operation.
var OpCosts = [numOps]sim.Time{
	S1ProcessCHLO:        1_800,
	S2p1KeyGen:           67_900,
	S2p2ECDH:             265_000,
	S2p3SHLOGen:          75_200,
	S2p4EECertEncode:     13_600,
	S2p5CertVerifyGen:    137_600,
	S2p6SecretDerive:     48_600,
	S3ProcessFinished:    44_400,
	C1p1KeyGen:           61_300,
	C1p2OthersGen:        5_500,
	C2p1ProcessSHLO:      2_600,
	C2p2ECDH:             88_700,
	C2p3SecretDerive:     48_800,
	C3p1DecodeCert:       100,
	C3p2VerifyCert:       483_400,
	C4p1BuildSignData:    1_400,
	C4p2VerifyCertVerify: 196_300,
	C5ProcessFinished:    42_600,
}

// RSA variants for the two signature-dependent rows (Table 2's
// "+with 2048-bit RSA" column).
const (
	RSACertVerifyGen    = sim.Time(1_344_000)
	RSAVerifyCertVerify = sim.Time(67_100)
)

// ShortChainSpeedup is the §4.5.1 observation: a short chain with a
// pre-installed CA key cuts Verify Cert by ≈52 %.
const ShortChainSpeedup = 0.52

// Mode selects the key-exchange variant of Figure 12.
type Mode int

// Figure 12 modes.
const (
	// Init1RTT is the standard TLS 1.3 initial handshake over the
	// transport (baseline).
	Init1RTT Mode = iota
	// Init0RTT is the SMT-ticket 0-RTT exchange without forward secrecy:
	// data rides the first flight under the SMT-key.
	Init0RTT
	// Init0RTTFS adds forward secrecy: the server's ServerHello carries
	// an ephemeral share and both sides switch to the fs-key.
	Init0RTTFS
	// Rsmp is TLS 1.3 session resumption (PSK, no fresh ECDHE).
	Rsmp
	// RsmpFS is resumption with an ECDHE re-exchange (psk_dhe_ke).
	RsmpFS
)

// String names the mode with the figure's labels.
func (m Mode) String() string {
	switch m {
	case Init1RTT:
		return "Init-1RTT"
	case Init0RTT:
		return "Init"
	case Init0RTTFS:
		return "Init-FS"
	case Rsmp:
		return "Rsmp"
	case RsmpFS:
		return "Rsmp-FS"
	default:
		return "unknown"
	}
}

// Identity is one endpoint's long-term credentials.
type Identity struct {
	SigKey  *ecdsa.PrivateKey // certificate key (ECDSA P-256)
	LongDH  *ecdh.PrivateKey  // long-term DH share published in SMT-tickets
	CertRaw []byte            // placeholder certificate bytes (hash-signed)
}

// NewIdentity generates server credentials from crypto/rand.
//
//smt:allow determinism -- real-entropy convenience constructor; simulated worlds use NewIdentityRand with the engine RNG
func NewIdentity() (*Identity, error) { return NewIdentityRand(rand.Reader) }

// NewIdentityRand generates server credentials with key material drawn
// from r. Simulated worlds pass the engine's seeded RNG so identities
// — and everything derived from them — replay identically for a given
// seed; NewIdentity passes crypto/rand.
func NewIdentityRand(r io.Reader) (*Identity, error) {
	dh, err := genECDHKey(r)
	if err != nil {
		return nil, fmt.Errorf("handshake: dh key: %w", err)
	}
	sigDH, err := genECDHKey(r)
	if err != nil {
		return nil, fmt.Errorf("handshake: sig key: %w", err)
	}
	sig, err := ecdsaFromECDH(sigDH)
	if err != nil {
		return nil, fmt.Errorf("handshake: sig key: %w", err)
	}
	cert := sha256.Sum256(append([]byte("smt-cert:"), dh.PublicKey().Bytes()...))
	return &Identity{SigKey: sig, LongDH: dh, CertRaw: cert[:]}, nil
}

// p256Order is n, the order of the P-256 base point, big-endian.
var p256Order = [32]byte{
	0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xbc, 0xe6, 0xfa, 0xad, 0xa7, 0x17, 0x9e, 0x84, 0xf3, 0xb9, 0xca, 0xc2, 0xfc, 0x63, 0x25, 0x51,
}

// DrawScalar draws a P-256 private scalar from r. The stdlib's
// GenerateKey may consume reader bytes in version-dependent ways (and
// ignores custom readers entirely in FIPS mode), so for reproducibility
// the scalar is read directly and rejection-sampled: 32 bytes at a time
// until 0 < d < n, the check ecdh.P256().NewPrivateKey makes, which
// rejects the ≈2⁻³² fraction of 32-byte strings outside the group
// order. Drawing costs no curve arithmetic; building the key pair,
// a ScalarBaseMult, is left to the caller that uses it.
func DrawScalar(r io.Reader) ([]byte, error) {
	d := make([]byte, len(p256Order))
	for i := 0; i < 128; i++ {
		if _, err := io.ReadFull(r, d); err != nil {
			return nil, fmt.Errorf("handshake: key material: %w", err)
		}
		if [32]byte(d) != [32]byte{} && bytes.Compare(d, p256Order[:]) < 0 { // 0 < d < n
			return d, nil
		}
	}
	return nil, fmt.Errorf("handshake: no valid P-256 scalar after 128 draws")
}

// genECDHKey draws a P-256 key pair from r.
func genECDHKey(r io.Reader) (*ecdh.PrivateKey, error) {
	d, err := DrawScalar(r)
	if err != nil {
		return nil, err
	}
	return ecdh.P256().NewPrivateKey(d)
}

// ecdsaFromECDH views a P-256 ECDH private key as an ECDSA signing key
// (same curve, same scalar); the uncompressed public point is 0x04‖X‖Y.
func ecdsaFromECDH(k *ecdh.PrivateKey) (*ecdsa.PrivateKey, error) {
	pub := k.PublicKey().Bytes()
	if len(pub) != 65 || pub[0] != 4 {
		return nil, fmt.Errorf("handshake: unexpected public point encoding")
	}
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(pub[1:33]),
			Y:     new(big.Int).SetBytes(pub[33:65]),
		},
		D: new(big.Int).SetBytes(k.Bytes()),
	}, nil
}

// Ticket is the SMT-ticket distributed through the datacenter DNS
// (§4.5.2): the server's long-term ECDH share, its certificate, and a
// signature over both by the certificate key.
type Ticket struct {
	ServerDH  []byte // long-term ECDH public key share
	Cert      []byte
	Signature []byte
	// Expiry bounds the 0-RTT replay window (§4.5.3); the reference
	// deployment rotates hourly.
	Expiry sim.Time
}

// NewTicket mints a ticket for id, valid until expiry (virtual time).
func NewTicket(id *Identity, expiry sim.Time) (*Ticket, error) {
	pub := id.LongDH.PublicKey().Bytes()
	digest := sha256.Sum256(append(append([]byte{}, pub...), id.Cert()...))
	//smt:allow determinism -- ECDSA nonce entropy; the signature is verified, never compared byte-for-byte in artifacts
	sig, err := ecdsa.SignASN1(rand.Reader, id.SigKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("handshake: ticket sign: %w", err)
	}
	return &Ticket{ServerDH: pub, Cert: id.Cert(), Signature: sig, Expiry: expiry}, nil
}

// Cert returns the identity's certificate bytes.
func (id *Identity) Cert() []byte { return id.CertRaw }

// Verify checks the ticket signature against the CA/server public key and
// its expiry at virtual time now.
func (t *Ticket) Verify(pub *ecdsa.PublicKey, now sim.Time) error {
	if now > t.Expiry {
		return fmt.Errorf("handshake: ticket expired")
	}
	digest := sha256.Sum256(append(append([]byte{}, t.ServerDH...), t.Cert...))
	if !ecdsa.VerifyASN1(pub, digest[:], t.Signature) {
		return fmt.Errorf("handshake: bad ticket signature")
	}
	return nil
}

// keySchedule derives an exchange's mirrored session keys (the client
// sees them as tx=client, rx=server) and its resumption master secret
// (the TLS 1.3 resumption_master_secret analog) from the shared secret
// and transcript. A later Rsmp/RsmpFS exchange feeds the master back as
// Options.PriorSecret; each resumed connection then expands it with a
// fresh nonce into a per-connection PSK.
//
// The schedule is RFC 8446's: HKDF-Extract of the secret, Derive-Secret
// of the client and server traffic secrets and the resumption master
// over the transcript hash, then HKDF-Expand-Label of each traffic
// secret's key and IV. It runs one Extract, hashes the transcript once,
// and keys one HMAC per secret, reused across that secret's labels.
func keySchedule(secret, transcript []byte) (client, server core.SessionKeys, master []byte) {
	const keyLen, ivLen = tlsrec.Key128, wire.GCMNonceLen
	var info, sum []byte // scratch: one HkdfLabel, one HMAC block
	// expand fills dst with HKDF-Expand-Label(secret, label, context,
	// len(dst)), hkdfx.ExpandLabel's bytes, where m is an HMAC keyed
	// with secret. dst is at most one SHA-256 block long, so HKDF-Expand
	// is the single block HMAC(secret, HkdfLabel ‖ 0x01).
	expand := func(dst []byte, m hash.Hash, label string, context []byte) {
		info = append(hkdfx.AppendHkdfLabel(info[:0], len(dst), label, context), 1)
		m.Reset()
		m.Write(info)
		sum = m.Sum(sum[:0])
		copy(dst, sum)
	}
	prk := hmac.New(sha256.New, make([]byte, sha256.Size)) // RFC 5869's zero salt
	prk.Write(secret)
	th := sha256.Sum256(transcript)
	m := hmac.New(sha256.New, prk.Sum(nil))
	var cSecret, sSecret [sha256.Size]byte
	expand(cSecret[:], m, "c ap traffic", th[:])
	expand(sSecret[:], m, "s ap traffic", th[:])
	// One allocation holds every output, each clipped to its length.
	out := make([]byte, 2*(keyLen+ivLen)+sha256.Size)
	cut := func(n int) []byte {
		b := out[:n:n]
		out = out[n:]
		return b
	}
	ck, civ, sk, siv := cut(keyLen), cut(ivLen), cut(keyLen), cut(ivLen)
	master = cut(sha256.Size)
	expand(master, m, "res master", th[:])
	for _, dir := range [...]struct{ secret, key, iv []byte }{{cSecret[:], ck, civ}, {sSecret[:], sk, siv}} {
		traffic := hmac.New(sha256.New, dir.secret)
		expand(dir.key, traffic, "key", nil)
		expand(dir.iv, traffic, "iv", nil)
	}
	client = core.SessionKeys{TxKey: ck, TxIV: civ, RxKey: sk, RxIV: siv}
	server = core.SessionKeys{TxKey: sk, TxIV: siv, RxKey: ck, RxIV: civ}
	return
}
