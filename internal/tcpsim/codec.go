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
// it, then hands it back through Release. Nothing else aliases a queued
// chunk (transmissions and retransmissions copy it), so the codec may
// reuse its Bytes and Records as soon as Release returns.
type Codec interface {
	// EncodeStream converts framed plaintext stream bytes into chunks,
	// returning the transmit-side CPU cost (software crypto or offload
	// metadata). It must not retain data: the connection reuses that
	// buffer for its next message as soon as EncodeStream returns. The
	// returned list is codec scratch, valid until the next call; the
	// chunks in it are the connection's until it releases them.
	EncodeStream(data []byte) ([]Chunk, sim.Time)
	// DecodeStream consumes in-order received stream bytes and returns
	// any newly available plaintext stream bytes plus the receive-side
	// CPU cost (decryption happens here — in recvmsg context).
	DecodeStream(data []byte) ([]byte, sim.Time, error)
	// Release returns a chunk EncodeStream produced, once and only once
	// the cumulative ACK covers all of it. A partly acknowledged chunk
	// may still be retransmitted, so it is never released.
	Release(Chunk)
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
	chunks []Chunk // EncodeStream scratch
}

// EncodeStream implements Codec. Each chunk is a copy of its slice of
// data, the bytes the connection keeps for retransmission.
func (c *PlainCodec) EncodeStream(data []byte) ([]Chunk, sim.Time) {
	chunks := c.chunks[:0]
	for off := 0; off < len(data); off += maxChunk {
		end := min(off+maxChunk, len(data))
		ch := c.pool.Get(end - off)
		copy(ch.Bytes, data[off:end])
		chunks = append(chunks, ch)
	}
	c.chunks = chunks
	return chunks, 0
}

// DecodeStream implements Codec.
func (c *PlainCodec) DecodeStream(data []byte) ([]byte, sim.Time, error) {
	return data, 0, nil
}

// Release implements Codec.
func (c *PlainCodec) Release(ch Chunk) { c.pool.Put(ch) }
