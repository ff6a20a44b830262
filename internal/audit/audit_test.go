package audit

import (
	"testing"

	"smt/internal/wire"
)

// These are the auditor's self-tests, mostly negative controls: for each
// invariant the auditor promises to enforce, plant the matching
// violation synthetically and assert it is flagged. The registry-wide
// green sweep (internal/experiments) is only meaningful if these fail
// when the auditor goes blind.

// fill writes deterministic pseudo-random bytes (xorshift64) into b:
// ciphertext-shaped content — high entropy, no incrementing runs.
func fill(seed uint64, b []byte) {
	x := seed*2 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

// protectedRecord builds one framed protected record as it appears
// inside a message-addressed DATA segment:
// [4 B framing][5 B header][app bytes ‖ 16 B tag], content from seed.
func protectedRecord(seed uint64, appLen int) []byte {
	fr := wire.FramingHeader{AppDataLen: uint32(appLen)}
	hdr := wire.RecordHeader{ContentType: wire.RecordTypeApplicationData, Length: uint16(appLen + wire.GCMTagLen)}
	b := fr.AppendTo(nil)
	b = hdr.AppendTo(b)
	body := make([]byte, appLen+wire.GCMTagLen)
	fill(seed, body)
	return append(b, body...)
}

// msgFlow returns a message-addressed (Homa/SMT-shaped) flow.
func msgFlow(srcPort uint16) wire.Flow {
	return wire.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: srcPort, DstPort: 7000, Proto: wire.ProtoHoma}
}

// dataPacket builds a delivered DATA packet on f carrying payload at
// (msgID, segment offset segOff, intra-segment index idx).
func dataPacket(f wire.Flow, msgID uint64, segOff uint32, idx uint16, payload []byte) *wire.Packet {
	return &wire.Packet{
		IP: wire.IPv4Header{Src: f.SrcIP, Dst: f.DstIP, Protocol: f.Proto, ID: idx},
		Overlay: wire.OverlayHeader{
			SrcPort: f.SrcPort, DstPort: f.DstPort,
			Type: wire.TypeData, MsgID: msgID, TSOOffset: segOff,
		},
		Payload: payload,
	}
}

// kinds collects the violation kinds an auditor recorded.
func kinds(a *Auditor) map[string]int {
	m := map[string]int{}
	for _, v := range a.Violations() {
		m[v.Kind]++
	}
	return m
}

// TestPlaintextLeakFlagged plants the two plaintext shapes the scanner
// promises to catch: the RPC body pattern (incrementing bytes) and
// low-entropy bulk bytes. Both must flag; ciphertext-shaped bytes of the
// same sizes must not.
func TestPlaintextLeakFlagged(t *testing.T) {
	a := New()
	leak := make([]byte, 256)
	for i := range leak {
		leak[i] = byte(i)
	}
	a.PacketDelivered(dataPacket(msgFlow(1), 1, 0, 0, leak), false)
	if k := kinds(a); k[KindPlaintextLeak] == 0 {
		t.Fatalf("incrementing-run payload not flagged: %v", a.Violations())
	}

	a = New()
	a.PacketDelivered(dataPacket(msgFlow(1), 1, 0, 0, make([]byte, 2048)), false)
	if k := kinds(a); k[KindPlaintextLeak] == 0 {
		t.Fatalf("low-entropy payload not flagged: %v", a.Violations())
	}

	a = New()
	a.PacketDelivered(dataPacket(msgFlow(1), 1, 0, 0, protectedRecord(7, 2000)), false)
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("ciphertext-shaped record flagged %d times: %v", n, a.Violations())
	}
}

// TestPlaintextScanSkippedWhenPlain pins the policy knob: with
// SetExpectCiphertext(false) the same leak payload is legal.
func TestPlaintextScanSkippedWhenPlain(t *testing.T) {
	a := New()
	a.SetExpectCiphertext(false)
	leak := make([]byte, 256)
	for i := range leak {
		leak[i] = byte(i)
	}
	a.PacketDelivered(dataPacket(msgFlow(1), 1, 0, 0, leak), false)
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("plain-policy auditor flagged %d violations: %v", n, a.Violations())
	}
}

// TestNonceReuseFlagged plants a forced nonce reuse: the same record
// slot (flow, message, segment, packet index) sent twice with different
// ciphertext in a fault-free run. An identical re-send (a true
// retransmit) must stay silent.
func TestNonceReuseFlagged(t *testing.T) {
	f := msgFlow(2)
	rec1 := protectedRecord(1, 200)
	rec2 := protectedRecord(2, 200) // same length, different keystream

	a := New()
	a.PacketDelivered(dataPacket(f, 5, 0, 0, rec1), false)
	a.PacketDelivered(dataPacket(f, 5, 0, 0, rec1), false) // identical retransmit: fine
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("identical retransmit flagged: %v", a.Violations())
	}
	a.PacketDelivered(dataPacket(f, 5, 0, 0, rec2), false) // re-encryption under the same slot
	if k := kinds(a); k[KindNonceReuse] == 0 {
		t.Fatalf("slot rewrite not flagged as nonce reuse: %v", a.Violations())
	}

	// Under fault injection the same rewrite is a counted anomaly, not a
	// violation — the network may legally mangle retransmit contents.
	a = New()
	a.SetFaultInjection(true)
	a.PacketDelivered(dataPacket(f, 5, 0, 0, rec1), false)
	a.PacketDelivered(dataPacket(f, 5, 0, 0, rec2), false)
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("tolerant auditor flagged slot rewrite: %v", a.Violations())
	}
	if a.Stats().SlotRewrites != 1 {
		t.Fatalf("tolerant auditor counted %d slot rewrites, want 1", a.Stats().SlotRewrites)
	}
}

// TestKeystreamReuseFlagged plants shared per-connection keys: two
// distinct flows carrying an identical protected record. Distinct
// records across flows must stay silent.
func TestKeystreamReuseFlagged(t *testing.T) {
	rec := protectedRecord(3, 300)
	a := New()
	a.PacketDelivered(dataPacket(msgFlow(10), 1, 0, 0, rec), false)
	a.PacketDelivered(dataPacket(msgFlow(11), 1, 0, 0, rec), false)
	if k := kinds(a); k[KindKeystreamReuse] == 0 {
		t.Fatalf("identical record on two flows not flagged: %v", a.Violations())
	}

	a = New()
	a.PacketDelivered(dataPacket(msgFlow(10), 1, 0, 0, protectedRecord(4, 300)), false)
	a.PacketDelivered(dataPacket(msgFlow(11), 1, 0, 0, protectedRecord(5, 300)), false)
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("distinct records flagged: %v", a.Violations())
	}
}

// TestRecordFramingFlagged plants garbage where records should be: a
// fault-free desync is a violation, a tampered one a statistic.
func TestRecordFramingFlagged(t *testing.T) {
	junk := make([]byte, 64)
	fill(9, junk)
	junk[0] = 0xff // framing length implausible, record header invalid

	a := New()
	a.PacketDelivered(dataPacket(msgFlow(3), 9, 0, 0, junk), false)
	if k := kinds(a); k[KindRecordFraming] == 0 {
		t.Fatalf("unparseable segment not flagged: %v", a.Violations())
	}

	a = New()
	pkt := dataPacket(msgFlow(3), 9, 0, 0, junk)
	pkt.Tampered = true
	a.PacketDelivered(pkt, false)
	if n := a.Stats().TotalViolations; n != 0 {
		t.Fatalf("tampered desync flagged as violation: %v", a.Violations())
	}
	if a.Stats().Desyncs != 1 {
		t.Fatalf("tampered desync not counted: stats=%+v", a.Stats())
	}
}

// TestByteAccountingFlagged plants a conservation hole: a packet entered
// the network and never came out. A balanced ledger must stay silent.
func TestByteAccountingFlagged(t *testing.T) {
	pkt := dataPacket(msgFlow(4), 1, 0, 0, protectedRecord(6, 100))

	a := New()
	a.PacketSent(pkt)
	a.PacketDelivered(pkt, false)
	if vs := a.CheckConservation(nil); len(vs) != 0 {
		t.Fatalf("balanced ledger flagged: %v", vs)
	}

	a = New()
	a.PacketSent(pkt)
	vs := a.CheckConservation(nil)
	if len(vs) == 0 {
		t.Fatal("vanished packet not flagged")
	}
	for _, v := range vs {
		if v.Kind != KindByteAccounting {
			t.Errorf("unexpected kind %q: %s", v.Kind, v)
		}
	}
}

// TestTrackerSegmentationInvariance pins the mis-framing contract: the
// same record stream, cut into packets at arbitrary boundaries and
// delivered in arbitrary order (with duplicates), must reassemble into
// exactly the same records with zero violations.
func TestTrackerSegmentationInvariance(t *testing.T) {
	const nRecords = 5
	var stream []byte
	for i := 0; i < nRecords; i++ {
		stream = append(stream, protectedRecord(uint64(20+i), 150+31*i)...)
	}
	cases := []struct {
		name  string
		cuts  int // packet size
		order func(n int) []int
	}{
		{"in-order-small", 97, func(n int) []int { return seq(n) }},
		{"in-order-large", 1000, func(n int) []int { return seq(n) }},
		{"reversed", 128, func(n int) []int { o := seq(n); reverse(o); return o }},
		{"interleaved", 64, func(n int) []int {
			var o []int
			for i := 0; i < n; i += 2 {
				o = append(o, i)
			}
			for i := 1; i < n; i += 2 {
				o = append(o, i)
			}
			return o
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pieces [][]byte
			for off := 0; off < len(stream); off += tc.cuts {
				end := off + tc.cuts
				if end > len(stream) {
					end = len(stream)
				}
				pieces = append(pieces, stream[off:end])
			}
			a := New()
			f := msgFlow(6)
			for _, i := range tc.order(len(pieces)) {
				a.PacketDelivered(dataPacket(f, 77, 0, uint16(i), pieces[i]), false)
				a.PacketDelivered(dataPacket(f, 77, 0, uint16(i), pieces[i]), true) // duplicate
			}
			st := a.Stats()
			if st.TotalViolations != 0 {
				t.Fatalf("violations: %v", a.Violations())
			}
			if st.Records != nRecords {
				t.Fatalf("reassembled %d records, want %d", st.Records, nRecords)
			}
		})
	}
}

// TestStreamTrackerReassembly drives the byte-stream (TCP-family) shape:
// unframed records at stream offsets, out of order, with an overlapping
// identical retransmit.
func TestStreamTrackerReassembly(t *testing.T) {
	f := wire.Flow{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 33, DstPort: 443, Proto: wire.ProtoTCP}
	var stream []byte
	for i := 0; i < 3; i++ {
		// TCP-family records have no framing prefix.
		stream = append(stream, protectedRecord(uint64(40+i), 200)[wire.FramingHeaderLen:]...)
	}
	pkt := func(off uint32, p []byte) *wire.Packet {
		q := dataPacket(f, 0, off, 0, p)
		q.IP.Protocol = wire.ProtoTCP
		return q
	}
	a := New()
	a.PacketDelivered(pkt(300, stream[300:]), false)    // future piece first
	a.PacketDelivered(pkt(0, stream[:200]), false)      // head
	a.PacketDelivered(pkt(100, stream[100:300]), false) // overlap + fill the gap
	a.PacketDelivered(pkt(0, stream[:200]), true)       // duplicate of the head
	st := a.Stats()
	if st.TotalViolations != 0 {
		t.Fatalf("violations: %v", a.Violations())
	}
	if st.Records != 3 {
		t.Fatalf("reassembled %d records, want 3", st.Records)
	}
	if st.OverlapConflicts != 0 {
		t.Fatalf("identical overlaps counted as conflicts: %d", st.OverlapConflicts)
	}
}

// TestHandshakeRecordsExempt pins that handshake records are counted but
// never fingerprinted: identical handshake transcripts on two flows are
// normal (same cipher suites), not keystream reuse.
func TestHandshakeRecordsExempt(t *testing.T) {
	body := make([]byte, 120)
	fill(50, body)
	hdr := wire.RecordHeader{ContentType: wire.RecordTypeHandshake, Length: uint16(len(body))}
	fr := wire.FramingHeader{AppDataLen: uint32(len(body))}
	rec := append(hdr.AppendTo(fr.AppendTo(nil)), body...)

	a := New()
	a.PacketDelivered(dataPacket(msgFlow(20), 1, 0, 0, rec), false)
	a.PacketDelivered(dataPacket(msgFlow(21), 1, 0, 0, rec), false)
	st := a.Stats()
	if st.TotalViolations != 0 {
		t.Fatalf("identical handshake records flagged: %v", a.Violations())
	}
	if st.HandshakeRecords != 2 {
		t.Fatalf("HandshakeRecords = %d, want 2", st.HandshakeRecords)
	}
}

func TestLongestIncRun(t *testing.T) {
	cases := []struct {
		p    []byte
		want int
	}{
		{nil, 0},
		{[]byte{7}, 1},
		{[]byte{1, 2, 3, 4}, 4},
		{[]byte{9, 1, 2, 3, 9, 9}, 3},
		{[]byte{255, 0, 1}, 3}, // wraps mod 256
		{[]byte{5, 5, 5}, 1},
	}
	for _, tc := range cases {
		if got := longestIncRun(tc.p); got != tc.want {
			t.Errorf("longestIncRun(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestShannon(t *testing.T) {
	uniform := make([]byte, 256*4)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	for name, h := range map[string]func([]byte) float64{"shannon": shannon, "entropy": entropy} {
		if got := h(make([]byte, 1024)); got != 0 {
			t.Errorf("%s: constant bytes: entropy %f, want 0", name, got)
		}
		if got := h(uniform); got < 7.99 || got > 8.01 {
			t.Errorf("%s: uniform bytes: entropy %f, want 8", name, got)
		}
	}
}

// seq returns [0..n).
func seq(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func reverse(o []int) {
	for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
		o[i], o[j] = o[j], o[i]
	}
}
