// Package core implements SMT — the paper's contribution: TLS-based
// encryption integrated *into* a Homa-style message transport (§4).
//
// The pieces map to the paper as follows:
//
//   - Codec (this file): the offload-friendly encrypted message format of
//     §4.3/Figure 3 — per-segment framing headers + TLS records aligned to
//     TSO segment boundaries — and the per-message record sequence number
//     spaces of §4.4: record i of message m is protected with the
//     composite sequence number (m ‖ i), so unordered messages never
//     collide and NIC self-incrementing counters stay valid.
//   - Socket (socket.go): the socket abstraction, session registration
//     (the kTLS-style setsockopt of §4.2), replay protection via
//     message-ID uniqueness, and the per-(session, queue) NIC flow
//     context policy of §4.4.2.
package core

import (
	"encoding/binary"
	"fmt"

	"smt/internal/cost"
	"smt/internal/homa"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// RecSpan is the plaintext bytes carried per TLS record (§4.3): records
// are sized so four fill one TSO segment (homa.DefaultSegSpan), and both
// endpoints derive identical segmentation from the message length alone.
const RecSpan = 16000

// SessionKeys is the keying material registered on a socket after the
// TLS 1.3 handshake (§4.2): one AEAD per direction.
type SessionKeys = tlsrec.Keys

// CodecStats counts codec-level events for the ablations.
type CodecStats struct {
	RecordsSW     uint64 // records sealed in software
	RecordsHW     uint64 // records described for NIC sealing
	SegmentsBuilt uint64
	Resyncs       uint64 // resync descriptors requested
	RecordsOpened uint64
	AuthFailures  uint64
	Replays       uint64
	PaddingBytes  uint64
}

// Codec is one peer session's encoder/decoder; it implements homa.Codec.
type Codec struct {
	cm    *cost.Model
	tx    *tlsrec.AEAD
	rx    *tlsrec.AEAD
	alloc tlsrec.BitAllocation
	guard *tlsrec.MsgIDGuard
	// maxMsg is MaxMessageSize, fixed by alloc when the codec is built.
	maxMsg int

	// hw enables NIC TLS offload: Encode emits record descriptors and
	// plaintext shells instead of sealing in software.
	hw bool
	// padTo, when >0, pads every record's inner plaintext to a multiple
	// of padTo bytes (RFC 8446 length concealment, §6.1).
	padTo int

	// sessionBase is the NIC flow-context ID namespace for this session;
	// context IDs are sessionBase|queue (§4.4.2: one context per queue
	// per flow 5-tuple).
	sessionBase uint64
	// nicNext tracks, per NIC queue, the record sequence number the
	// queue's context will expect next; a mismatch on submit requests a
	// resync. It grows to the highest queue used.
	nicNext []nicQueue

	// segFree recycles encode segments (descriptor + payload scratch +
	// record-descriptor slice); a segment is in flight from Encode until
	// the NIC runs its Release. decBuf is Decode's output scratch, valid
	// until the next Decode call on this codec; the transport decodes
	// through DecodeTo and never touches it.
	segFree []*homa.Segment
	decBuf  []byte

	Stats CodecStats
}

// getSeg takes a pooled segment, its Release hook pre-bound.
func (c *Codec) getSeg() *homa.Segment {
	if l := len(c.segFree); l > 0 {
		seg := c.segFree[l-1]
		c.segFree[l-1] = nil
		c.segFree = c.segFree[:l-1]
		return seg
	}
	//smt:coldpath -- segment free-list refill: runs only until the pool warms up, then every Encode reuses
	seg := &homa.Segment{}
	//smt:coldpath -- one-time Release hook allocated with its segment at pool-refill time
	seg.Release = func() {
		seg.Payload = seg.Payload[:0]
		seg.Records = seg.Records[:0]
		seg.Resync = false
		c.segFree = append(c.segFree, seg)
	}
	return seg
}

// grow returns b with length n, reusing capacity when possible. The
// contents are unspecified; callers overwrite every byte.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	//smt:coldpath -- capacity growth only; steady state hits the fast path above once buffers reach message size
	return make([]byte, n)
}

// NewCodec builds a session codec. hw selects NIC offload; sessionBase
// must be NIC-unique for this session (the socket manages it).
func NewCodec(cm *cost.Model, keys SessionKeys, alloc tlsrec.BitAllocation, hw bool, padTo int, sessionBase uint64) (*Codec, error) {
	if !alloc.Valid() {
		return nil, fmt.Errorf("core: invalid bit allocation %v", alloc)
	}
	tx, err := tlsrec.NewAEAD(keys.TxKey, keys.TxIV)
	if err != nil {
		return nil, fmt.Errorf("core: tx keys: %w", err)
	}
	rx, err := tlsrec.NewAEAD(keys.RxKey, keys.RxIV)
	if err != nil {
		return nil, fmt.Errorf("core: rx keys: %w", err)
	}
	return &Codec{
		cm: cm, tx: tx, rx: rx,
		alloc:       alloc,
		guard:       tlsrec.NewMsgIDGuard(),
		maxMsg:      maxMessageSize(alloc),
		hw:          hw,
		padTo:       padTo,
		sessionBase: sessionBase,
	}, nil
}

// nicQueue is a codec's view of one NIC queue's flow context.
type nicQueue struct {
	next uint64 // record sequence number the context expects next
	used bool   // a segment has gone out on this queue
}

// MaxMessageSize is the largest message the record-index field can carry.
func (c *Codec) MaxMessageSize() int { return c.maxMsg }

// maxMessageSize is the largest message alloc's record-index field can
// carry at RecSpan bytes per record, capped at 1 TiB.
func maxMessageSize(alloc tlsrec.BitAllocation) int {
	max := alloc.MaxMessageSize(RecSpan)
	const cap = 1 << 40
	if max > cap {
		return cap
	}
	return int(max)
}

// SegSpan implements homa.Codec.
func (c *Codec) SegSpan() int { return homa.DefaultSegSpan }

// padOf returns the padding appended to a record carrying plain bytes.
func (c *Codec) padOf(plain int) int {
	if c.padTo <= 0 {
		return 0
	}
	inner := plain + 1
	rem := inner % c.padTo
	if rem == 0 {
		return 0
	}
	return c.padTo - rem
}

// recWire returns the wire length of one record carrying plain bytes:
// framing header + record header + inner (plain‖type‖pad) + tag.
func (c *Codec) recWire(plain int) int {
	return wire.FramingHeaderLen + tlsrec.RecordWireLen(plain, c.padOf(plain))
}

// WireLen implements homa.Codec.
func (c *Codec) WireLen(off, n int) int {
	total := 0
	for done := 0; done < n; {
		p := RecSpan
		if n-done < p {
			p = n - done
		}
		total += c.recWire(p)
		done += p
	}
	return total
}

// Encode implements homa.Codec: Figure 3's segment layout. Each record is
// framed, sequenced with the composite (msgID ‖ recIdx) number, and either
// sealed in software or described for the NIC crypto engine.
func (c *Codec) Encode(msgID uint64, msg []byte, off, n, queue int, retransmit bool) (homa.Segment, sim.Time) {
	seg := c.getSeg()
	payload := grow(seg.Payload, c.WireLen(off, n))
	var (
		recs    = seg.Records[:0]
		cpu     sim.Time
		pos     int
		recIdx  = uint64(off / RecSpan)
		nextSeq uint64
	)
	for done := 0; done < n; {
		p := RecSpan
		if n-done < p {
			p = n - done
		}
		plain := msg[off+done : off+done+p]
		pad := c.padOf(p)
		c.Stats.PaddingBytes += uint64(pad)
		seq, err := c.alloc.Compose(msgID, recIdx)
		if err != nil {
			// Socket.Send validates sizes; reaching this is a bug.
			//smt:allow panic -- sizes were validated by Socket.Send; overflow here means corrupted codec state
			panic(fmt.Sprintf("core: sequence overflow: %v", err))
		}
		binary.BigEndian.PutUint32(payload[pos:], uint32(p)) // framing header
		hdrOff := pos + wire.FramingHeaderLen
		recLen := tlsrec.RecordWireLen(p, pad)
		if c.hw {
			tlsrec.WriteRecordShell(payload, hdrOff, wire.RecordTypeApplicationData, plain, pad)
			recs = append(recs, nicsim.RecordDesc{Off: hdrOff, InnerLen: p + 1 + pad, Seq: seq})
			c.Stats.RecordsHW++
		} else {
			sealed, err := c.tx.SealRecord(payload[:hdrOff], seq, wire.RecordTypeApplicationData, plain, pad)
			if err != nil {
				//smt:allow panic -- sealing with session keys over validated sizes cannot fail; an error means corrupted key state
				panic(fmt.Sprintf("core: seal: %v", err))
			}
			if len(sealed) != hdrOff+recLen {
				//smt:allow panic -- record layout arithmetic broke; continuing would emit unparseable wire bytes
				panic("core: record length mismatch")
			}
			cpu += c.cm.CryptoSW(recLen)
			c.Stats.RecordsSW++
		}
		cpu += c.cm.SMTRecord
		pos = hdrOff + recLen
		done += p
		recIdx++
		nextSeq = seq + 1
	}
	c.Stats.SegmentsBuilt++

	seg.Payload = payload
	if c.hw {
		cpu += c.cm.OffloadMetaPerSeg
		seg.Records = recs
		seg.Keys = c.tx
		seg.CtxID = c.sessionBase | uint64(queue&0xffff)
		first := recs[0].Seq
		for len(c.nicNext) <= queue {
			c.nicNext = append(c.nicNext, nicQueue{})
		}
		if q := &c.nicNext[queue]; q.used && q.next != first {
			seg.Resync = true
			c.Stats.Resyncs++
		}
		c.nicNext[queue] = nicQueue{next: nextSeq, used: true}
	}
	return *seg, cpu
}

// DecodeTo implements homa.Codec: reassembled TSO segment payload →
// verified plaintext, appended to dst. Record sequence numbers are
// recomputed from the (plaintext) offsets, so segments decode
// independently and in any order; any tampering, reordering across
// spaces, or NIC counter corruption fails authentication here. Each
// record decrypts straight into dst, so the transport's delivery
// buffer is written once per byte.
func (c *Codec) DecodeTo(dst []byte, msgID uint64, msgLen, off int, seg []byte) ([]byte, sim.Time, error) {
	var (
		cpu    = c.cm.SMTRxSegment
		pos    int
		recIdx = uint64(off / RecSpan)
	)
	// The transport validates segment geometry against the registered
	// message, but DecodeTo is also the public codec API: inconsistent
	// coordinates must error, not panic.
	if msgLen <= 0 || off < 0 || off >= msgLen {
		return dst, cpu, fmt.Errorf("core: segment offset %d outside message of %d bytes", off, msgLen)
	}
	n := msgLen - off
	if n > homa.DefaultSegSpan {
		n = homa.DefaultSegSpan
	}
	out := dst
	for done := 0; done < n; {
		p := RecSpan
		if n-done < p {
			p = n - done
		}
		var fr wire.FramingHeader
		if err := fr.DecodeFromBytes(seg[pos:]); err != nil {
			return dst, cpu, fmt.Errorf("core: framing: %w", err)
		}
		if int(fr.AppDataLen) != p {
			return dst, cpu, fmt.Errorf("core: framing length %d, want %d", fr.AppDataLen, p)
		}
		hdrOff := pos + wire.FramingHeaderLen
		recLen := tlsrec.RecordWireLen(p, c.padOf(p))
		if hdrOff+recLen > len(seg) {
			return dst, cpu, fmt.Errorf("core: truncated record at %d", pos)
		}
		seq, err := c.alloc.Compose(msgID, recIdx)
		if err != nil {
			return dst, cpu, err
		}
		base := len(out)
		ext, ct, err := c.rx.OpenRecordTo(out, seq, seg[hdrOff:hdrOff+recLen])
		cpu += c.cm.CryptoSW(recLen)
		if err != nil {
			c.Stats.AuthFailures++
			return dst, cpu, err
		}
		if ct != wire.RecordTypeApplicationData || len(ext)-base != p {
			c.Stats.AuthFailures++
			return dst, cpu, fmt.Errorf("core: unexpected record content")
		}
		c.Stats.RecordsOpened++
		out = ext
		pos = hdrOff + recLen
		done += p
		recIdx++
	}
	return out, cpu, nil
}

// Decode is DecodeTo into codec-owned scratch, for callers that drive
// the codec directly: the plaintext is valid until the next Decode call
// on this codec, and nil on error.
func (c *Codec) Decode(msgID uint64, msgLen, off int, seg []byte) ([]byte, sim.Time, error) {
	out, cpu, err := c.DecodeTo(c.decBuf[:0], msgID, msgLen, off, seg)
	if err != nil {
		return nil, cpu, err
	}
	c.decBuf = out
	return out, cpu, nil
}

// AcceptMessage implements homa.Codec: session-wide message-ID uniqueness
// (§4.4.1). Replayed IDs are rejected before any decryption.
func (c *Codec) AcceptMessage(msgID uint64) error {
	if err := c.guard.Accept(msgID); err != nil {
		c.Stats.Replays++
		return err
	}
	return nil
}
