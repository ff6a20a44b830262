package wire

import (
	"testing"
	"testing/quick"
)

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{TotalLen: 1500, ID: 42, TTL: 64, Protocol: ProtoSMT, Src: 0x0a000001, Dst: 0x0a000002}
	b := h.AppendTo(nil)
	if len(b) != IPv4HeaderLen {
		t.Fatalf("len = %d", len(b))
	}
	var g IPv4Header
	if err := g.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 100, ID: 7, TTL: 64, Protocol: ProtoHoma, Src: 1, Dst: 2}
	b := h.AppendTo(nil)
	b[4] ^= 0xff // corrupt ID
	var g IPv4Header
	if err := g.DecodeFromBytes(b); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4Truncated(t *testing.T) {
	var g IPv4Header
	if err := g.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4BadVersion(t *testing.T) {
	h := IPv4Header{TTL: 1}
	b := h.AppendTo(nil)
	b[0] = 0x65 // version 6
	var g IPv4Header
	if err := g.DecodeFromBytes(b); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of data||checksum == 0.
	data := []byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	ck := Checksum(data)
	if ck != 0xb861 {
		t.Fatalf("checksum = %#x, want 0xb861", ck)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Fatal("odd-length checksum wrong")
	}
}

func TestOverlayRoundTrip(t *testing.T) {
	h := OverlayHeader{
		SrcPort: 4000, DstPort: 6379, HWSeq: 99,
		Type: TypeData, Flags: FlagEncrypted | FlagLast,
		Checksum: 0xabcd,
		MsgID:    0x0000_1234_5678_9abc, MsgLen: 1 << 20,
		TSOOffset: 0x0003_f000, ResendPktOff: 3, Aux: 77,
	}
	b := h.AppendTo(nil)
	if len(b) != OverlayHeaderLen {
		t.Fatalf("len = %d", len(b))
	}
	var g OverlayHeader
	if err := g.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", g, h)
	}
}

func TestOverlayTSOOffsetSplit(t *testing.T) {
	// TSO offset straddles the urgent-pointer low half and an options
	// high half; exercise boundary values.
	for _, off := range []uint32{0, 1, 0xffff, 0x10000, 0xabcdef, 0xffffffff} {
		h := OverlayHeader{Type: TypeData, TSOOffset: off}
		var g OverlayHeader
		if err := g.DecodeFromBytes(h.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		if g.TSOOffset != off {
			t.Fatalf("TSO offset %#x decoded as %#x", off, g.TSOOffset)
		}
	}
}

func TestOverlayBadDataOff(t *testing.T) {
	h := OverlayHeader{Type: TypeData}
	b := h.AppendTo(nil)
	b[12] = 5 << 4
	var g OverlayHeader
	if err := g.DecodeFromBytes(b); err != ErrBadDataOff {
		t.Fatalf("err = %v, want ErrBadDataOff", err)
	}
}

func TestOverlayTruncated(t *testing.T) {
	var g OverlayHeader
	if err := g.DecodeFromBytes(make([]byte, OverlayHeaderLen-1)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestPacketTypeString(t *testing.T) {
	names := map[PacketType]string{
		TypeData: "DATA", TypeGrant: "GRANT", TypeResend: "RESEND",
		TypeBusy: "BUSY", TypeAck: "ACK", TypeHandshake: "HANDSHAKE",
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

// Property: overlay header encode/decode is the identity for any field
// assignment (with type restricted to valid values and doff fixed).
func TestOverlayRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, hw uint32, ty uint8, fl uint8, mid uint64, mlen, tso uint32, rpo uint16, aux uint32) bool {
		h := OverlayHeader{
			SrcPort: sp, DstPort: dp, HWSeq: hw,
			Type: PacketType(ty%6 + 1), Flags: fl,
			MsgID: mid, MsgLen: mlen, TSOOffset: tso,
			ResendPktOff: rpo, Aux: aux,
		}
		var g OverlayHeader
		if err := g.DecodeFromBytes(h.AppendTo(nil)); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestDecodeNoAlloc(t *testing.T) {
	h := OverlayHeader{Type: TypeData, MsgID: 5}
	b := h.AppendTo(nil)
	var g OverlayHeader
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.DecodeFromBytes(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFromBytes allocates %v per run; want 0", allocs)
	}
}
