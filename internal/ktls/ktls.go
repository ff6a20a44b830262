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
	"encoding/binary"
	"errors"
	"fmt"

	"smt/internal/cost"
	"smt/internal/hkdfx"
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
type Keys struct {
	TxKey, TxIV []byte
	RxKey, RxIV []byte
}

// Codec implements tcpsim.Codec with TLS 1.3 record protection.
type Codec struct {
	cm   *cost.Model
	mode Mode
	tx   *tlsrec.AEAD
	rx   *tlsrec.AEAD

	txSeq tlsrec.StreamSeq
	rxSeq tlsrec.StreamSeq

	rxBuf  []byte // partial record accumulation
	outBuf []byte // DecodeStream scratch, valid until the next call

	pool   tcpsim.ChunkPool // released records (and kTLS-hw descriptors)
	chunks []tcpsim.Chunk   // EncodeStream scratch, valid until the next call

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

// Mode reports the codec's deployment mode.
func (c *Codec) Mode() Mode { return c.mode }

// perRecordCost is the non-crypto bookkeeping per record.
func (c *Codec) perRecordCost() sim.Time {
	if c.mode == ModeUserTLS {
		return c.cm.UserTLSRecord
	}
	return c.cm.KTLSRecord
}

// EncodeStream implements tcpsim.Codec: cut the framed plaintext into
// records; one chunk per record, taken from the codec's chunk pool.
func (c *Codec) EncodeStream(data []byte) ([]tcpsim.Chunk, sim.Time) {
	var (
		chunks = c.chunks[:0]
		cpu    sim.Time
	)
	for off := 0; off < len(data); off += RecPlain {
		n := RecPlain
		if off+n > len(data) {
			n = len(data) - off
		}
		plain := data[off : off+n]
		seq := c.txSeq.Next()
		recLen := tlsrec.RecordWireLen(n, 0)
		cpu += c.perRecordCost()
		c.RecordsSealed++
		ch := c.pool.Get(recLen)
		if c.mode == ModeKTLSHW {
			// The plaintext shell the NIC seals on transmit, and its one
			// record descriptor.
			tlsrec.WriteRecordShell(ch.Bytes, 0, wire.RecordTypeApplicationData, plain, 0)
			cpu += c.cm.OffloadMetaPerSeg
			ch.Records = append(ch.Records, nicsim.RecordDesc{Off: 0, InnerLen: n + 1, Seq: seq})
			ch.Keys = c.tx
			chunks = append(chunks, ch)
			continue
		}
		sealed, err := c.tx.SealRecord(ch.Bytes[:0], seq, wire.RecordTypeApplicationData, plain, 0)
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

// Release implements tcpsim.Codec.
func (c *Codec) Release(ch tcpsim.Chunk) { c.pool.Put(ch) }

// DecodeStream implements tcpsim.Codec: accumulate ciphertext, open
// complete records in order. The returned slice is codec-owned scratch,
// valid until the next DecodeStream call; the connection consumes it
// before decoding again.
func (c *Codec) DecodeStream(data []byte) ([]byte, sim.Time, error) {
	c.rxBuf = append(c.rxBuf, data...)
	var (
		out  = c.outBuf[:0]
		cpu  sim.Time
		recs int
		pos  int
	)
	//smt:allow hotalloc -- per-call compaction defer; userspace TLS copying is the cost being measured
	defer func() {
		// Compact the consumed prefix so rxBuf's capacity is reused.
		c.rxBuf = append(c.rxBuf[:0], c.rxBuf[pos:]...)
		c.outBuf = out[:0]
	}()
	for {
		var hdr wire.RecordHeader
		if err := hdr.DecodeFromBytes(c.rxBuf[pos:]); err != nil {
			break // incomplete header
		}
		total := wire.RecordHeaderLen + int(hdr.Length)
		if len(c.rxBuf)-pos < total {
			break // incomplete record: must wait (no partial decrypt)
		}
		seq := c.rxSeq.Next()
		ext, ct, err := c.rx.OpenRecordTo(out, seq, c.rxBuf[pos:pos+total])
		cpu += c.cm.CryptoSW(total) + c.perRecordCost()
		if recs > 0 {
			// Stream abstraction tax: the application's read loop issues
			// roughly one recv per record, whereas a message transport
			// hands over a whole message per call (§2 "per-socket
			// syscalls"). The first record rides the wakeup's recv.
			cpu += c.cm.Syscall
		}
		recs++
		if err != nil || ct != wire.RecordTypeApplicationData {
			c.AuthFailures++
			return out, cpu, ErrAuth
		}
		out = ext
		c.RecordsOpened++
		if c.mode == ModeUserTLS {
			cpu += c.cm.Copy(total) + c.cm.Syscall
		}
		pos += total
	}
	return out, cpu, nil
}

// ConnKeys derives mirrored per-connection key material from a stack
// label and the client half of the connection's 4-tuple — the state one
// TLS handshake per connection would produce. Both ends can compute it
// independently (the client knows its own address and ephemeral port at
// dial time; the server reads them off the SYN), and no two connections
// ever share keys, unlike the fixed PairKeys test vectors.
func ConnKeys(label string, clientAddr uint32, clientPort uint16) (client, server Keys) {
	prk := hkdfx.Extract(nil, []byte("smt stack "+label))
	ctx := make([]byte, 6)
	binary.BigEndian.PutUint32(ctx, clientAddr)
	binary.BigEndian.PutUint16(ctx[4:], clientPort)
	const dirLen = tlsrec.Key128 + wire.GCMNonceLen
	okm := hkdfx.Expand(prk, ctx, 2*dirLen)
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
