package homa

import (
	"bytes"
	"testing"
)

// Native Go fuzz target for the transport codec contract on its
// identity implementation (PlainCodec): both endpoints must derive the
// same segmentation from (message length, offset) alone, Encode/DecodeTo
// must round-trip any segment, and no in-range input may panic — the
// SMT codec (internal/core) is fuzzed against the same contract with
// crypto on top. Seed corpora live in testdata/fuzz/<FuzzName>/.

func FuzzPlainCodecSegmentation(f *testing.F) {
	f.Add([]byte("one tiny message"), uint16(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0x5a}, 200_000), uint16(0), uint16(2))
	f.Add(bytes.Repeat([]byte{7}, 3_000), uint16(512), uint16(5))
	f.Fuzz(func(t *testing.T, msg []byte, spanArg, segArg uint16) {
		if len(msg) == 0 {
			return // transport rejects empty messages before the codec
		}
		c := &PlainCodec{Span: int(spanArg)}
		span := c.SegSpan()
		if span <= 0 {
			t.Fatalf("SegSpan() = %d", span)
		}
		segs := nSegs(len(msg), span)
		if segs < 1 || (segs-1)*span >= len(msg) || segs*span < len(msg) {
			t.Fatalf("nSegs(%d, %d) = %d", len(msg), span, segs)
		}
		seg := int(segArg) % segs
		off := seg * span
		n := span
		if off+n > len(msg) {
			n = len(msg) - off
		}
		if wl := c.WireLen(off, n); wl != n {
			t.Fatalf("identity codec WireLen(%d, %d) = %d", off, n, wl)
		}
		enc, cpu := c.Encode(42, msg, off, n, 0, false)
		if cpu != 0 {
			t.Fatalf("identity encode charged %v CPU", cpu)
		}
		if len(enc.Payload) != n || enc.Records != nil || enc.Keys != nil {
			t.Fatalf("identity encode produced %d bytes + offload state", len(enc.Payload))
		}
		plain, cpu, err := c.DecodeTo([]byte("dst"), 42, len(msg), off, enc.Payload)
		if err != nil || cpu != 0 {
			t.Fatalf("identity decode: err=%v cpu=%v", err, cpu)
		}
		if string(plain[:3]) != "dst" || !bytes.Equal(plain[3:], msg[off:off+n]) {
			t.Fatalf("segment [%d:%d) did not round-trip", off, off+n)
		}
		if err := c.AcceptMessage(42); err != nil {
			t.Fatalf("plain codec rejected a message: %v", err)
		}
	})
}
