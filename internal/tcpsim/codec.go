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

// Chunk buffers are deliberately NOT pooled: a software-record (or
// plaintext) retransmission hands chunk.Bytes to the NIC uncopied, and
// the TSO cut aliases it later in virtual time, so an ack-time release
// could recycle a buffer an in-flight retransmission still references.
// They stay GC-managed. (A kTLS-hw retransmission re-seals a pooled copy
// of the retained plaintext shell and never aliases it.)

// Codec transforms application messages to stream bytes and back. The
// connection itself handles message framing (4-byte length prefix) above
// the codec, mirroring how RPC protocols frame over TLS/TCP.
type Codec interface {
	// EncodeStream converts framed plaintext stream bytes into chunks,
	// returning the transmit-side CPU cost (software crypto or offload
	// metadata). It must not retain data: the connection reuses that
	// buffer for its next message as soon as EncodeStream returns, so
	// every chunk owns its Bytes.
	EncodeStream(data []byte) ([]Chunk, sim.Time)
	// DecodeStream consumes in-order received stream bytes and returns
	// any newly available plaintext stream bytes plus the receive-side
	// CPU cost (decryption happens here — in recvmsg context).
	DecodeStream(data []byte) ([]byte, sim.Time, error)
}

// maxChunk bounds a chunk to one TSO segment so the packing loop in the
// connection always makes progress.
const maxChunk = 64000

// PlainCodec is raw TCP: the stream is the framed plaintext itself.
type PlainCodec struct{}

// EncodeStream implements Codec. Each chunk is a copy of its slice of
// data, the bytes the connection keeps for retransmission.
func (PlainCodec) EncodeStream(data []byte) ([]Chunk, sim.Time) {
	var chunks []Chunk
	for off := 0; off < len(data); off += maxChunk {
		end := off + maxChunk
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, Chunk{Bytes: append([]byte(nil), data[off:end]...)})
	}
	return chunks, 0
}

// DecodeStream implements Codec.
func (PlainCodec) DecodeStream(data []byte) ([]byte, sim.Time, error) {
	return data, 0, nil
}
