// Package tcpsim implements the TCP-side baseline: a reliable, in-order
// bytestream transport with TSO/GRO-style batching, cumulative ACKs,
// fast retransmit, RSS flow-to-core pinning, and pluggable stream codecs
// (plain, kTLS software/hardware, user-space TLS, TCPLS) layered the way
// the paper's baselines are (§2.1, §5).
//
// Both of TCP's RPC pathologies from §2 are intrinsic here: the stream
// has no message boundaries (applications length-prefix their messages
// and reassemble), and a connection is pinned to one softirq core by its
// 5-tuple hash, so messages of different connections hashing together —
// or a small message behind a large one on the same connection — suffer
// head-of-line blocking at the core.
package tcpsim

import (
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
)

// Chunk is a codec-produced unit of stream bytes. Chunks are the
// granularity of TSO packing and retransmission; a TLS record is always
// one chunk, which models kTLS's record-aligned transmit path.
type Chunk struct {
	// Bytes is the ciphertext (or plaintext) stream image of the chunk.
	Bytes []byte
	// Records describes TLS records for NIC sealing (hardware offload);
	// offsets are relative to Bytes.
	Records []nicsim.RecordDesc
	// Keys is the AEAD for Records.
	Keys *tlsrec.AEAD
}

// Codec transforms application messages to stream bytes and back. The
// connection itself handles message framing (4-byte length prefix) above
// the codec, mirroring how RPC protocols frame over TLS/TCP.
//
// A chunk has the lifetime the kernel gives a kTLS record: the
// connection queues it until the cumulative ACK covers every byte of
// it, then hands it back through Release. Until then the codec must
// not touch it: a first transmission's NIC job reads the queued bytes
// until it has cut them into packets, and a retransmission copies
// them. So the codec may reuse its Bytes and Records as soon as
// Release returns.
type Codec interface {
	// EncodeMessage converts one framed message, the stream bytes
	// prefix ‖ msg, into chunks, returning the transmit-side CPU cost
	// (software crypto or offload metadata). It reads both parts,
	// writes neither and retains neither: msg is the caller's message,
	// and the connection rewrites prefix for its next message as soon
	// as EncodeMessage returns. The returned list is codec scratch,
	// valid until the next call; the chunks in it are the connection's
	// until it releases them.
	EncodeMessage(prefix, msg []byte) ([]Chunk, sim.Time)
	// DecodeStreamTo consumes in-order received stream bytes, appends
	// any newly available plaintext stream bytes to dst and returns the
	// extended slice, plus the receive-side CPU cost (decryption
	// happens here — in recvmsg context). dst's existing bytes are
	// never modified. data is only read during the call.
	DecodeStreamTo(dst, data []byte) ([]byte, sim.Time, error)
	// Release returns a chunk EncodeMessage produced, once and only
	// once the cumulative ACK covers all of it. A partly acknowledged
	// chunk may still be retransmitted, so it is never released.
	Release(Chunk)
}

// FramedRange returns bytes [off, end) of the framed message prefix ‖ msg
// as two parts, head from prefix and body from msg; either may be
// empty. Codecs cut their chunks and records from the two parts this
// way, so no framed copy of the message is ever assembled.
func FramedRange(prefix, msg []byte, off, end int) (head, body []byte) {
	p := len(prefix)
	return prefix[min(off, p):min(end, p)], msg[max(off-p, 0):max(end-p, 0)]
}

// maxChunk bounds a chunk to one TSO segment so the packing loop in the
// connection always makes progress.
const maxChunk = 64000

// ChunkPool is a codec's free list of released chunks. Get searches it
// from the most recently released chunk for the first whose Bytes can
// hold n bytes; fresh chunks are allocated at their exact size, so a
// connection that never releases allocates nothing beyond its chunks.
// The zero value is an empty pool.
type ChunkPool struct {
	free []Chunk
}

// Get returns a chunk whose Bytes has length n (contents unspecified;
// the caller overwrites every byte) and whose Records is empty.
func (p *ChunkPool) Get(n int) Chunk {
	for i := len(p.free) - 1; i >= 0; i-- {
		if ch := p.free[i]; cap(ch.Bytes) >= n {
			last := len(p.free) - 1
			copy(p.free[i:], p.free[i+1:])
			p.free[last] = Chunk{}
			p.free = p.free[:last]
			ch.Bytes = ch.Bytes[:n]
			return ch
		}
	}
	//smt:coldpath -- chunk free-list refill; steady state reuses released chunks
	return Chunk{Bytes: make([]byte, n)}
}

// Put adds a released chunk to the pool, keeping its Bytes and Records
// capacity.
func (p *ChunkPool) Put(ch Chunk) {
	p.free = append(p.free, Chunk{Bytes: ch.Bytes[:0], Records: ch.Records[:0]})
}

// PlainCodec is raw TCP: the stream is the framed plaintext itself. The
// zero value is ready to use.
type PlainCodec struct {
	pool   ChunkPool
	chunks []Chunk // EncodeMessage scratch
}

// EncodeMessage implements Codec. Each chunk is a copy of its slice of
// the framed message, the bytes the connection keeps for
// retransmission.
func (c *PlainCodec) EncodeMessage(prefix, msg []byte) ([]Chunk, sim.Time) {
	chunks := c.chunks[:0]
	total := len(prefix) + len(msg)
	for off := 0; off < total; off += maxChunk {
		end := min(off+maxChunk, total)
		head, body := FramedRange(prefix, msg, off, end)
		ch := c.pool.Get(end - off)
		copy(ch.Bytes[copy(ch.Bytes, head):], body)
		chunks = append(chunks, ch)
	}
	c.chunks = chunks
	return chunks, 0
}

// DecodeStreamTo implements Codec: the stream is the plaintext.
func (c *PlainCodec) DecodeStreamTo(dst, data []byte) ([]byte, sim.Time, error) {
	return append(dst, data...), 0, nil
}

// Release implements Codec.
func (c *PlainCodec) Release(ch Chunk) { c.pool.Put(ch) }
