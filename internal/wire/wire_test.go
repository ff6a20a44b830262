package wire

import (
	"testing"
	"testing/quick"
)

func TestPacketTypeString(t *testing.T) {
	names := map[PacketType]string{
		TypeData: "DATA", TypeGrant: "GRANT", TypeResend: "RESEND",
		TypeAck: "ACK", TypeHandshake: "HANDSHAKE",
		PacketType(200): "PacketType(200)",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}

func TestFramingRoundTrip(t *testing.T) {
	f := FramingHeader{AppDataLen: 16384}
	var g FramingHeader
	if err := g.DecodeFromBytes(f.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("framing round trip failed")
	}
	if err := g.DecodeFromBytes(nil); err != ErrTruncated {
		t.Fatal("want ErrTruncated")
	}
}

func TestRecordHeaderRoundTrip(t *testing.T) {
	r := RecordHeader{ContentType: RecordTypeApplicationData, Length: MaxTLSRecord + GCMTagLen}
	b := r.AppendTo(nil)
	if len(b) != RecordHeaderLen {
		t.Fatalf("len = %d", len(b))
	}
	if b[1] != 0x03 || b[2] != 0x03 {
		t.Fatal("legacy version bytes missing")
	}
	var g RecordHeader
	if err := g.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if g != r {
		t.Fatal("record header round trip failed")
	}
	if err := g.DecodeFromBytes(b[:4]); err != ErrTruncated {
		t.Fatal("want ErrTruncated")
	}
}

func TestFlowReverseAndHashSymmetry(t *testing.T) {
	f := Flow{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 2000, Proto: ProtoSMT}
	r := Flow{SrcIP: 2, DstIP: 1, SrcPort: 2000, DstPort: 1000, Proto: ProtoSMT}
	if f.FastHash() != r.FastHash() {
		t.Fatal("FastHash must be symmetric")
	}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}

func TestFlowHashSymmetryProperty(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16, proto uint8) bool {
		fl := Flow{SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp, Proto: proto}
		rev := Flow{SrcIP: dip, DstIP: sip, SrcPort: dp, DstPort: sp, Proto: proto}
		return fl.FastHash() == rev.FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowHashSpreads(t *testing.T) {
	// Different ports should spread over cores: count distinct hash%8.
	seen := map[uint64]bool{}
	for port := uint16(0); port < 64; port++ {
		f := Flow{SrcIP: 1, DstIP: 2, SrcPort: 1000 + port, DstPort: 6379, Proto: ProtoTCP}
		seen[f.FastHash()%8] = true
	}
	if len(seen) < 6 {
		t.Fatalf("poor spread: only %d of 8 buckets hit", len(seen))
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Payload: []byte{1, 2, 3}}
	q := p.Clone()
	q.Payload[0] = 9
	if p.Payload[0] != 1 {
		t.Fatal("clone shares payload")
	}
}

// TestDecodeNoAlloc pins the framing and record header decoders, which
// every SMT segment decode and every audited record runs, at zero
// allocations.
func TestDecodeNoAlloc(t *testing.T) {
	b := (&FramingHeader{AppDataLen: 5}).AppendTo(nil)
	b = (&RecordHeader{ContentType: RecordTypeApplicationData, Length: 21}).AppendTo(b)
	var f FramingHeader
	var r RecordHeader
	allocs := testing.AllocsPerRun(100, func() {
		if f.DecodeFromBytes(b) != nil || r.DecodeFromBytes(b[FramingHeaderLen:]) != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFromBytes allocates %v per run; want 0", allocs)
	}
}
