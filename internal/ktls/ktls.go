// Package ktls implements the TLS-over-TCP baselines of the evaluation:
//
//   - ModeKTLSSW: kernel TLS, software crypto (kTLS-sw) — records sealed
//     on the CPU in sendmsg context, opened in recvmsg context.
//   - ModeKTLSHW: kernel TLS with NIC autonomous offload (kTLS-hw) —
//     transmit records are described to the NIC crypto engine; receive
//     stays in software (the paper disables RX offload for fairness, §5).
//   - ModeUserTLS: user-space TLS (Redis's stock configuration in §5.3) —
//     like kTLS-sw plus an extra user-space buffer copy and higher
//     per-record bookkeeping, and never offloadable.
//
// All modes use one per-connection record sequence number space — the
// TLS/TCP column of Figure 4 — so out-of-order transmit (retransmits)
// needs NIC resyncs, and nothing can be parallelized across messages.
package ktls

import (
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"smt/internal/cost"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// Mode selects the TLS deployment model.
type Mode int

// Modes.
const (
	ModeKTLSSW Mode = iota
	ModeKTLSHW
	ModeUserTLS
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeKTLSSW:
		return "kTLS-sw"
	case ModeKTLSHW:
		return "kTLS-hw"
	case ModeUserTLS:
		return "TLS (user)"
	default:
		return "unknown"
	}
}

// RecPlain is the plaintext bytes per TLS record on the stream path,
// chosen (like SMT's RecSpan) so records pack into TSO segments.
const RecPlain = 16000

// Keys carries the two directions' AEAD material for one connection.
type Keys = tlsrec.Keys

// Codec implements tcpsim.Codec with TLS 1.3 record protection.
type Codec struct {
	cm   *cost.Model
	mode Mode
	tx   *tlsrec.AEAD
	rx   *tlsrec.AEAD

	txSeq tlsrec.StreamSeq
	rxSeq tlsrec.StreamSeq

	rxRecs tlsrec.RecordReader // cuts received records, carrying one that straddles a batch
	outBuf []byte              // DecodeStream scratch, valid until the next call

	pool   tcpsim.ChunkPool // released records (and kTLS-hw descriptors)
	chunks []tcpsim.Chunk   // EncodeMessage scratch, valid until the next call

	// Stats
	RecordsSealed uint64
	RecordsOpened uint64
	AuthFailures  uint64
}

// ErrAuth is returned when a record fails authentication; the connection
// tears down (TLS alert semantics).
var ErrAuth = errors.New("ktls: record authentication failed")

// New builds a codec for one connection direction pair.
func New(cm *cost.Model, mode Mode, keys Keys) (*Codec, error) {
	tx, err := tlsrec.NewAEAD(keys.TxKey, keys.TxIV)
	if err != nil {
		return nil, fmt.Errorf("ktls: tx: %w", err)
	}
	rx, err := tlsrec.NewAEAD(keys.RxKey, keys.RxIV)
	if err != nil {
		return nil, fmt.Errorf("ktls: rx: %w", err)
	}
	return &Codec{cm: cm, mode: mode, tx: tx, rx: rx}, nil
}

// perRecordCost is the non-crypto bookkeeping per record.
func (c *Codec) perRecordCost() sim.Time {
	if c.mode == ModeUserTLS {
		return c.cm.UserTLSRecord
	}
	return c.cm.KTLSRecord
}

// EncodeMessage implements tcpsim.Codec: cut the framed message into
// records, sealed (or, for kTLS-hw, laid out as plaintext shells) from
// its two parts; one chunk per record, taken from the codec's chunk
// pool.
func (c *Codec) EncodeMessage(prefix, msg []byte) ([]tcpsim.Chunk, sim.Time) {
	var (
		chunks = c.chunks[:0]
		cpu    sim.Time
		total  = len(prefix) + len(msg)
	)
	for off := 0; off < total; off += RecPlain {
		n := min(RecPlain, total-off)
		head, body := tcpsim.FramedRange(prefix, msg, off, off+n)
		seq := c.txSeq.Next()
		recLen := tlsrec.RecordWireLen(n, 0)
		cpu += c.perRecordCost()
		c.RecordsSealed++
		ch := c.pool.Get(recLen)
		if c.mode == ModeKTLSHW {
			// The plaintext shell the NIC seals on transmit, and its one
			// record descriptor.
			tlsrec.WriteRecordShellParts(ch.Bytes, 0, wire.RecordTypeApplicationData, head, body, 0)
			cpu += c.cm.OffloadMetaPerSeg
			ch.Records = append(ch.Records, nicsim.RecordDesc{Off: 0, InnerLen: n + 1, Seq: seq})
			ch.Keys = c.tx
			chunks = append(chunks, ch)
			continue
		}
		sealed, err := c.tx.SealRecordParts(ch.Bytes[:0], seq, wire.RecordTypeApplicationData, head, body, 0)
		if err != nil {
			//smt:allow panic -- sealing with session keys over validated sizes cannot fail; an error means corrupted key state
			panic(fmt.Sprintf("ktls: seal: %v", err))
		}
		cpu += c.cm.CryptoSW(recLen)
		if c.mode == ModeUserTLS {
			// User-space TLS copies the ciphertext into the socket via
			// write(2): one more pass over the data.
			cpu += c.cm.Copy(recLen) + c.cm.Syscall
		}
		ch.Bytes = sealed
		chunks = append(chunks, ch)
	}
	c.chunks = chunks
	return chunks, cpu
}

// EncodeStream encodes already framed stream bytes: EncodeMessage with
// no separate prefix, for callers that drive the codec directly.
func (c *Codec) EncodeStream(data []byte) ([]tcpsim.Chunk, sim.Time) {
	return c.EncodeMessage(nil, data)
}

// Release implements tcpsim.Codec.
func (c *Codec) Release(ch tcpsim.Chunk) { c.pool.Put(ch) }

// DecodeStreamTo implements tcpsim.Codec: open the complete records in
// order, each straight from data (or, if it straddled the previous
// batch, from the reader's carry) into dst. A record that fails ends
// the stream with ErrAuth, and every later call fails on it again.
func (c *Codec) DecodeStreamTo(dst, data []byte) ([]byte, sim.Time, error) {
	var cpu sim.Time
	for recs := 0; ; recs++ {
		rec, rest, ok := c.rxRecs.Next(data)
		if !ok {
			return dst, cpu, nil
		}
		data = rest
		seq := c.rxSeq.Next()
		// Growing by the record's length (amortized, like append) first
		// means the decrypt, which writes the content-type byte past the
		// plaintext, never reallocates dst at its exact size.
		dst = slices.Grow(dst, len(rec))
		out, ct, err := c.rx.OpenRecordTo(dst, seq, rec)
		cpu += c.cm.CryptoSW(len(rec)) + c.perRecordCost()
		if recs > 0 {
			// Stream abstraction tax: the application's read loop issues
			// roughly one recv per record, whereas a message transport
			// hands over a whole message per call (§2 "per-socket
			// syscalls"). The first record rides the wakeup's recv.
			cpu += c.cm.Syscall
		}
		if err != nil || ct != wire.RecordTypeApplicationData {
			c.AuthFailures++
			c.rxRecs.Retain(rec)
			return dst, cpu, ErrAuth
		}
		dst = out
		c.RecordsOpened++
		if c.mode == ModeUserTLS {
			cpu += c.cm.Copy(len(rec)) + c.cm.Syscall
		}
	}
}

// DecodeStream is DecodeStreamTo into codec-owned scratch, for callers
// that drive the codec directly: the plaintext is valid until the next
// DecodeStream call.
func (c *Codec) DecodeStream(data []byte) ([]byte, sim.Time, error) {
	out, cpu, err := c.DecodeStreamTo(c.outBuf[:0], data)
	c.outBuf = out[:0]
	return out, cpu, err
}

// ConnKeys derives mirrored per-connection key material from a stack
// label and the client half of the connection's 4-tuple — the state one
// TLS handshake per connection would produce. Both ends can compute it
// independently (the client knows its own address and ephemeral port at
// dial time; the server reads them off the SYN), and no two connections
// ever share keys, unlike the fixed PairKeys test vectors.
func ConnKeys(label string, clientAddr uint32, clientPort uint16) (client, server Keys) {
	var ctx [6]byte
	binary.BigEndian.PutUint32(ctx[:], clientAddr)
	binary.BigEndian.PutUint16(ctx[4:], clientPort)
	const dirLen = tlsrec.Key128 + wire.GCMNonceLen
	// crypto/hkdf fails only on output past 255 blocks or, in FIPS
	// 140-only mode, on a secret under 14 bytes, and this one is "smt
	// stack " and a label of 5 bytes or more. TestConnKeysPinned pins
	// the bytes.
	okm, _ := hkdf.Key(sha256.New, []byte("smt stack "+label), nil, string(ctx[:]), 2*dirLen)
	ck, civ := okm[:tlsrec.Key128], okm[tlsrec.Key128:dirLen]
	sk, siv := okm[dirLen:dirLen+tlsrec.Key128], okm[dirLen+tlsrec.Key128:]
	client = Keys{TxKey: ck, TxIV: civ, RxKey: sk, RxIV: siv}
	server = Keys{TxKey: sk, TxIV: siv, RxKey: ck, RxIV: civ}
	return
}

// PairKeys builds mirrored key material for tests/benchmarks (the state
// after a TLS handshake).
func PairKeys(seed byte) (client, server Keys) {
	mk := func(salt byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed ^ salt ^ byte(i*11+5)
		}
		return b
	}
	ck, civ := mk(0, tlsrec.Key128), mk(1, wire.GCMNonceLen)
	sk, siv := mk(2, tlsrec.Key128), mk(3, wire.GCMNonceLen)
	client = Keys{TxKey: ck, TxIV: civ, RxKey: sk, RxIV: siv}
	server = Keys{TxKey: sk, TxIV: siv, RxKey: ck, RxIV: civ}
	return
}
