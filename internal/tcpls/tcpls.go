// Package tcpls models TCPLS [Rochet et al., CoNEXT'21] for the §5.5
// comparison: TLS 1.3 records over TCP with stream multiplexing inside
// the TLS layer. Two properties matter for the evaluation:
//
//   - every record carries a stream-control extension (we model an 8-byte
//     stream header inside each record) and extra per-record processing
//     for stream demultiplexing and cross-connection synchronization;
//   - its custom AEAD nonce derivation is incompatible with NIC TLS
//     offload [67], so TCPLS is software-only by construction.
package tcpls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"smt/internal/cost"
	"smt/internal/ktls"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// streamHeaderLen is the per-record stream multiplexing header TCPLS
// embeds in the protected payload.
const streamHeaderLen = 8

// RecPlain is the application bytes per record (stream header deducted
// from the kTLS-sized record budget).
const RecPlain = ktls.RecPlain - streamHeaderLen

// ErrAuth mirrors ktls.ErrAuth.
var ErrAuth = errors.New("tcpls: record authentication failed")

// Codec implements tcpsim.Codec with TCPLS record processing on stream 0.
type Codec struct {
	cm    *cost.Model
	tx    *tlsrec.AEAD
	rx    *tlsrec.AEAD
	txSeq tlsrec.StreamSeq
	rxSeq tlsrec.StreamSeq

	rxRecs tlsrec.RecordReader // cuts received records, carrying one that straddles a batch
	head   []byte              // EncodeMessage scratch: stream header ‖ length-prefix bytes
	pool   tcpsim.ChunkPool    // released records
	chunks []tcpsim.Chunk      // EncodeMessage scratch, valid until the next call

	RecordsSealed uint64
	RecordsOpened uint64
	AuthFailures  uint64
}

// New builds a TCPLS codec from mirrored key material.
func New(cm *cost.Model, keys ktls.Keys) (*Codec, error) {
	tx, err := tlsrec.NewAEAD(keys.TxKey, keys.TxIV)
	if err != nil {
		return nil, fmt.Errorf("tcpls: %w", err)
	}
	rx, err := tlsrec.NewAEAD(keys.RxKey, keys.RxIV)
	if err != nil {
		return nil, fmt.Errorf("tcpls: %w", err)
	}
	return &Codec{cm: cm, tx: tx, rx: rx}, nil
}

// EncodeMessage implements tcpsim.Codec: one record per chunk, taken
// from the codec's chunk pool. A record's protected payload is the
// stream header ‖ app bytes; the header and the message's length
// prefix (in the first record) are the seal's first part, the message
// bytes its second.
func (c *Codec) EncodeMessage(prefix, msg []byte) ([]tcpsim.Chunk, sim.Time) {
	var (
		chunks = c.chunks[:0]
		cpu    sim.Time
		total  = len(prefix) + len(msg)
	)
	for off := 0; off < total; off += RecPlain {
		n := min(RecPlain, total-off)
		framing, body := tcpsim.FramedRange(prefix, msg, off, off+n)
		head := binary.BigEndian.AppendUint32(c.head[:0], 0)  // stream id 0
		head = binary.BigEndian.AppendUint32(head, uint32(n)) // stream chunk length
		head = append(head, framing...)
		c.head = head

		seq := c.txSeq.Next()
		ch := c.pool.Get(tlsrec.RecordWireLen(streamHeaderLen+n, 0))
		sealed, err := c.tx.SealRecordParts(ch.Bytes[:0], seq, wire.RecordTypeApplicationData, head, body, 0)
		if err != nil {
			//smt:allow panic -- sealing with session keys over validated sizes cannot fail; an error means corrupted key state
			panic(fmt.Sprintf("tcpls: seal: %v", err))
		}
		cpu += c.cm.CryptoSW(len(sealed)) + c.cm.TCPLSRecord
		c.RecordsSealed++
		ch.Bytes = sealed
		chunks = append(chunks, ch)
	}
	c.chunks = chunks
	return chunks, cpu
}

// Release implements tcpsim.Codec.
func (c *Codec) Release(ch tcpsim.Chunk) { c.pool.Put(ch) }

// DecodeStreamTo implements tcpsim.Codec: open the complete records in
// order straight into dst, then strip each one's stream header. A
// record that fails ends the stream with ErrAuth, and every later call
// fails on it again.
func (c *Codec) DecodeStreamTo(dst, data []byte) ([]byte, sim.Time, error) {
	var cpu sim.Time
	for {
		rec, rest, ok := c.rxRecs.Next(data)
		if !ok {
			return dst, cpu, nil
		}
		data = rest
		seq := c.rxSeq.Next()
		base := len(dst)
		dst = slices.Grow(dst, len(rec)) // the decrypt never reallocates (see ktls)
		ext, ct, err := c.rx.OpenRecordTo(dst, seq, rec)
		cpu += c.cm.CryptoSW(len(rec)) + c.cm.TCPLSRecord
		if err != nil || ct != wire.RecordTypeApplicationData || len(ext)-base < streamHeaderLen ||
			int(binary.BigEndian.Uint32(ext[base+4:])) != len(ext)-base-streamHeaderLen {
			c.AuthFailures++
			c.rxRecs.Retain(rec)
			return dst, cpu, ErrAuth
		}
		c.RecordsOpened++
		// Strip the stream header in place: slide the app bytes down.
		inner := ext[base:]
		dst = ext[:base+copy(inner, inner[streamHeaderLen:])]
	}
}
