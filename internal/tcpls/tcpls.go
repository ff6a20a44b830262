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
	rxBuf []byte

	innerBuf []byte           // EncodeStream scratch: stream header ‖ app bytes
	outBuf   []byte           // DecodeStream scratch, valid until the next call
	pool     tcpsim.ChunkPool // released records
	chunks   []tcpsim.Chunk   // EncodeStream scratch, valid until the next call

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

// EncodeStream implements tcpsim.Codec: one record per chunk, taken
// from the codec's chunk pool.
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
		// Protected payload: stream header ‖ app bytes (codec scratch —
		// SealRecord copies it into the record buffer).
		if cap(c.innerBuf) < streamHeaderLen+n {
			//smt:coldpath -- innerBuf capacity growth only; steady state reuses the scratch buffer
			c.innerBuf = make([]byte, streamHeaderLen+n)
		}
		inner := c.innerBuf[:streamHeaderLen+n]
		binary.BigEndian.PutUint32(inner, 0)             // stream id 0
		binary.BigEndian.PutUint32(inner[4:], uint32(n)) // stream chunk length
		copy(inner[streamHeaderLen:], data[off:off+n])

		seq := c.txSeq.Next()
		ch := c.pool.Get(tlsrec.RecordWireLen(len(inner), 0))
		sealed, err := c.tx.SealRecord(ch.Bytes[:0], seq, wire.RecordTypeApplicationData, inner, 0)
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

// DecodeStream implements tcpsim.Codec. The returned slice is codec-owned
// scratch, valid until the next DecodeStream call.
func (c *Codec) DecodeStream(data []byte) ([]byte, sim.Time, error) {
	c.rxBuf = append(c.rxBuf, data...)
	var (
		out = c.outBuf[:0]
		cpu sim.Time
		pos int
	)
	//smt:allow hotalloc -- per-call compaction defer; userspace TLS copying is the cost being measured
	defer func() {
		c.rxBuf = append(c.rxBuf[:0], c.rxBuf[pos:]...)
		c.outBuf = out[:0]
	}()
	for {
		var hdr wire.RecordHeader
		if err := hdr.DecodeFromBytes(c.rxBuf[pos:]); err != nil {
			break
		}
		total := wire.RecordHeaderLen + int(hdr.Length)
		if len(c.rxBuf)-pos < total {
			break
		}
		seq := c.rxSeq.Next()
		base := len(out)
		ext, ct, err := c.rx.OpenRecordTo(out, seq, c.rxBuf[pos:pos+total])
		cpu += c.cm.CryptoSW(total) + c.cm.TCPLSRecord
		if err != nil || ct != wire.RecordTypeApplicationData || len(ext)-base < streamHeaderLen {
			c.AuthFailures++
			return out, cpu, ErrAuth
		}
		inner := ext[base:]
		n := int(binary.BigEndian.Uint32(inner[4:]))
		if n != len(inner)-streamHeaderLen {
			c.AuthFailures++
			return out, cpu, ErrAuth
		}
		c.RecordsOpened++
		// Strip the stream header in place: slide the app bytes down.
		copy(inner, inner[streamHeaderLen:])
		out = ext[:base+n]
		pos += total
	}
	return out, cpu, nil
}
