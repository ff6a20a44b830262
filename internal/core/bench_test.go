package core

import (
	"testing"

	"smt/internal/cost"
	"smt/internal/tlsrec"
)

// codecOps are the codec operations the benchmarks time and
// TestCodecAllocs holds at zero allocations, each over one full 64 KB
// TSO segment of size bytes.
type codecOps struct {
	size int
	// encode builds a segment of 4 software-sealed records and releases
	// it; encodeHW does the same in the NIC-offload transmit layout
	// (record shells + descriptors, no software crypto).
	encode, encodeHW func()
	// decode verifies and decrypts one reassembled segment into the
	// codec's pooled output scratch.
	decode func()
}

// newCodecOps builds codecOps over mirrored encode/decode codec pairs.
func newCodecOps(tb testing.TB) codecOps {
	tb.Helper()
	cm := cost.Default()
	keys := SessionKeys{TxKey: testKey(9, 0), TxIV: testIV(9, 1), RxKey: testKey(9, 0), RxIV: testIV(9, 1)}
	newCodec := func(hw bool) *Codec {
		c, err := NewCodec(cm, keys, tlsrec.DefaultAllocation, hw, 0, 0)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	enc, hw, dec := newCodec(false), newCodec(true), newCodec(false)
	msg := pattern(enc.SegSpan())
	encode := func(c *Codec) func() {
		return func() {
			seg, _ := c.Encode(0, msg, 0, len(msg), 0, false)
			seg.Release()
		}
	}
	seg, _ := enc.Encode(0, msg, 0, len(msg), 0, false)
	payload := append([]byte(nil), seg.Payload...)
	seg.Release()
	return codecOps{
		size:     len(msg),
		encode:   encode(enc),
		encodeHW: encode(hw),
		decode: func() {
			if _, _, err := dec.Decode(0, len(msg), 0, payload); err != nil {
				tb.Fatal(err)
			}
		},
	}
}

// benchCodecOp times op, one of newCodecOps' operations on a segment of
// size bytes.
func benchCodecOp(b *testing.B, size int, op func()) {
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkCodecEncode measures building one full 64 KB TSO segment (4
// software-sealed records). Steady state is allocation-free: payload and
// record-descriptor scratch are pooled through Segment.Release.
func BenchmarkCodecEncode(b *testing.B) {
	ops := newCodecOps(b)
	benchCodecOp(b, ops.size, ops.encode)
}

// BenchmarkCodecEncodeHW measures the NIC-offload transmit layout.
func BenchmarkCodecEncodeHW(b *testing.B) {
	ops := newCodecOps(b)
	benchCodecOp(b, ops.size, ops.encodeHW)
}

// BenchmarkCodecDecode measures verifying and decrypting one reassembled
// 64 KB segment.
func BenchmarkCodecDecode(b *testing.B) {
	ops := newCodecOps(b)
	benchCodecOp(b, ops.size, ops.decode)
}
