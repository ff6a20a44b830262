package nicsim

import (
	"bytes"
	"testing"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

type rig struct {
	eng *sim.Engine
	net *netsim.Network
	nic *NIC
	got []*wire.Packet
}

func newRig(t *testing.T, queues int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	r := &rig{eng: eng, net: net}
	r.nic = New(eng, cm, net, 1, queues)
	net.Attach(2, func(p *wire.Packet) { r.got = append(r.got, p) })
	return r
}

func seg(payloadLen int) *TxSegment {
	return &TxSegment{
		Pkt: &wire.Packet{
			IP:      wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2},
			Overlay: wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgID: 1, MsgLen: uint32(payloadLen)},
			Payload: bytes.Repeat([]byte{0xEE}, payloadLen),
		},
		MTU: wire.DefaultMTU,
	}
}

func TestTSOSplitsAndReplicatesHeaders(t *testing.T) {
	r := newRig(t, 1)
	s := seg(4000) // per-packet payload 1440 → 3 packets (1440,1440,1120)
	r.eng.At(0, func() { r.nic.SendSegment(0, s) })
	r.eng.Run()
	if len(r.got) != 3 {
		t.Fatalf("packets = %d, want 3", len(r.got))
	}
	total := 0
	for i, p := range r.got {
		if p.Overlay.MsgID != 1 || p.Overlay.DstPort != 10 {
			t.Fatal("overlay header not replicated")
		}
		if int(p.IP.ID) != i {
			t.Fatalf("IPID of packet %d = %d (must be intra-segment index)", i, p.IP.ID)
		}
		total += len(p.Payload)
		if i < 2 && len(p.Payload) != wire.DefaultMTU-60 {
			t.Fatalf("packet %d payload = %d", i, len(p.Payload))
		}
	}
	if total != 4000 {
		t.Fatalf("payload bytes = %d", total)
	}
	if r.nic.Stats.TxPackets != 3 || r.nic.Stats.TxSegments != 1 {
		t.Fatalf("stats = %+v", r.nic.Stats)
	}
}

func TestNoTSO(t *testing.T) {
	r := newRig(t, 1)
	s := seg(1000)
	s.NoTSO = true
	s.Pkt.IP.ID = 7
	r.eng.At(0, func() { r.nic.SendSegment(0, s) })
	r.eng.Run()
	if len(r.got) != 1 || r.got[0].IP.ID != 7 {
		t.Fatalf("NoTSO mangled the packet: %d pkts", len(r.got))
	}
}

func TestEmptySegmentStillEmitsOnePacket(t *testing.T) {
	r := newRig(t, 1)
	s := seg(0)
	r.eng.At(0, func() { r.nic.SendSegment(0, s) })
	r.eng.Run()
	if len(r.got) != 1 {
		t.Fatalf("packets = %d, want 1 (header-only)", len(r.got))
	}
}

func TestSerializationPacesWire(t *testing.T) {
	r := newRig(t, 2)
	// Two max-size packets from different queues share one transmitter.
	a, b := seg(1440), seg(1440)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, a)
		r.nic.SendSegment(1, b)
	})
	var times []sim.Time
	r.net.Attach(2, func(p *wire.Packet) { times = append(times, r.eng.Now()) })
	r.eng.Run()
	if len(times) != 2 {
		t.Fatalf("got %d packets", len(times))
	}
	gap := times[1] - times[0]
	want := cost.Default().Serialize(1500)
	if gap != want {
		t.Fatalf("inter-packet gap %v, want serialization time %v", gap, want)
	}
}

func offloadSeg(t *testing.T, aead *tlsrec.AEAD, ctxID uint64, seq uint64, resync bool, plain []byte) *TxSegment {
	t.Helper()
	recLen := tlsrec.RecordWireLen(len(plain), 0)
	payload := make([]byte, recLen)
	tlsrec.WriteRecordShell(payload, 0, wire.RecordTypeApplicationData, plain, 0)
	return &TxSegment{
		Pkt: &wire.Packet{
			IP:      wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2},
			Overlay: wire.OverlayHeader{Type: wire.TypeData, MsgID: seq, MsgLen: uint32(len(plain))},
			Payload: payload,
		},
		MTU:     wire.DefaultMTU,
		Records: []RecordDesc{{Off: 0, InnerLen: len(plain) + 1, Seq: seq}},
		Keys:    aead,
		CtxID:   ctxID,
		Resync:  resync,
	}
}

func testKeys(t *testing.T) *tlsrec.AEAD {
	t.Helper()
	a, err := tlsrec.NewAEAD(bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 12))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Figure 2 "In-seq": S1 then S2 with matching counters encrypt correctly.
func TestOffloadInSequence(t *testing.T) {
	r := newRig(t, 1)
	aead := testKeys(t)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 0, false, []byte("S1")))
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 1, false, []byte("S2")))
	})
	r.eng.Run()
	if r.nic.Stats.Corrupted != 0 {
		t.Fatalf("corrupted = %d", r.nic.Stats.Corrupted)
	}
	for i, want := range []string{"S1", "S2"} {
		pt, _, err := aead.OpenRecord(uint64(i), r.got[i].Payload)
		if err != nil || string(pt) != want {
			t.Fatalf("record %d: %q %v", i, pt, err)
		}
	}
	if seqNow, _ := r.nic.ContextSeq(42); seqNow != 2 {
		t.Fatalf("context counter = %d, want 2", seqNow)
	}
}

// Figure 2 "Out-seq": skipping a sequence number corrupts the segment —
// the receiver's authentication fails.
func TestOffloadOutOfSequenceCorrupts(t *testing.T) {
	r := newRig(t, 1)
	aead := testKeys(t)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 0, false, []byte("S1")))
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 2, false, []byte("S3"))) // skipped 1
	})
	r.eng.Run()
	if r.nic.Stats.Corrupted != 1 {
		t.Fatalf("corrupted = %d, want 1", r.nic.Stats.Corrupted)
	}
	// The stack intended seq 2; the NIC used its counter (1).
	if _, _, err := aead.OpenRecord(2, r.got[1].Payload); err != tlsrec.ErrAuthFailed {
		t.Fatalf("expected auth failure, got %v", err)
	}
}

// Figure 2 "Out-resync": a resync descriptor repairs the counter.
func TestOffloadResyncRepairs(t *testing.T) {
	r := newRig(t, 1)
	aead := testKeys(t)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 0, false, []byte("S1")))
		r.nic.SendSegment(0, offloadSeg(t, aead, 42, 2, true, []byte("S3")))
	})
	r.eng.Run()
	if r.nic.Stats.Corrupted != 0 {
		t.Fatalf("corrupted = %d, want 0", r.nic.Stats.Corrupted)
	}
	if r.nic.Stats.Resyncs != 1 {
		t.Fatalf("resyncs = %d", r.nic.Stats.Resyncs)
	}
	pt, _, err := aead.OpenRecord(2, r.got[1].Payload)
	if err != nil || string(pt) != "S3" {
		t.Fatalf("resynced record: %q %v", pt, err)
	}
}

// §3.2: resync+segment pairs on *different* queues against one shared
// context are not atomic — the interleaving corrupts one segment. This is
// exactly why SMT gives messages separate contexts per queue.
func TestCrossQueueResyncHazard(t *testing.T) {
	r := newRig(t, 2)
	aead := testKeys(t)
	r.eng.At(0, func() {
		// Both queues resync the same context then seal: R4,R5 race.
		r.nic.SendSegment(0, offloadSeg(t, aead, 7, 4, true, []byte("S4")))
		r.nic.SendSegment(1, offloadSeg(t, aead, 7, 5, true, []byte("S5")))
	})
	r.eng.Run()
	if r.nic.Stats.Corrupted == 0 {
		t.Fatal("cross-queue shared-context race should corrupt at least one segment")
	}
}

// SMT's fix: per-queue contexts make the same submission pattern safe.
func TestPerQueueContextsAvoidHazard(t *testing.T) {
	r := newRig(t, 2)
	aead := testKeys(t)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, offloadSeg(t, aead, 100, 4, true, []byte("S4"))) // ctx 100 = (sess, q0)
		r.nic.SendSegment(1, offloadSeg(t, aead, 101, 5, true, []byte("S5"))) // ctx 101 = (sess, q1)
	})
	r.eng.Run()
	if r.nic.Stats.Corrupted != 0 {
		t.Fatalf("per-queue contexts corrupted %d segments", r.nic.Stats.Corrupted)
	}
	for i, want := range []struct {
		seq uint64
		s   string
	}{{4, "S4"}, {5, "S5"}} {
		// Packet order on the wire may be either; try both.
		ok := false
		for _, p := range r.got {
			if pt, _, err := aead.OpenRecord(want.seq, p.Payload); err == nil && string(pt) == want.s {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("record %d not decryptable", i)
		}
	}
}

func TestContextReuseNeedsNoRealloc(t *testing.T) {
	r := newRig(t, 1)
	aead := testKeys(t)
	r.eng.At(0, func() {
		r.nic.SendSegment(0, offloadSeg(t, aead, 5, 0, false, []byte("a")))
		r.nic.SendSegment(0, offloadSeg(t, aead, 5, 100, true, []byte("b"))) // new message, resync
	})
	r.eng.Run()
	if r.nic.Stats.CtxAllocs != 1 {
		t.Fatalf("allocs = %d, want 1 (resync reuses the context, §4.4.2)", r.nic.Stats.CtxAllocs)
	}
	if r.nic.Stats.Resyncs != 1 || r.nic.Stats.Corrupted != 0 {
		t.Fatalf("stats = %+v", r.nic.Stats)
	}
}

// recordSeg builds a TSO segment of three application-data records
// shelled in place: plaintext fill seed, records numbered from seq.
func recordSeg(aead *tlsrec.AEAD, msgID, ctxID, seq uint64, seed byte) (*TxSegment, [][]byte) {
	var payload []byte
	var recs []RecordDesc
	var plains [][]byte
	for i := 0; i < 3; i++ {
		plain := bytes.Repeat([]byte{seed + byte(i)}, 1000)
		off := len(payload)
		payload = append(payload, make([]byte, tlsrec.RecordWireLen(len(plain), 0))...)
		tlsrec.WriteRecordShell(payload, off, wire.RecordTypeApplicationData, plain, 0)
		recs = append(recs, RecordDesc{Off: off, InnerLen: len(plain) + 1, Seq: seq + uint64(i)})
		plains = append(plains, plain)
	}
	return &TxSegment{
		Pkt: &wire.Packet{
			IP:      wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2},
			Overlay: wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgID: msgID, MsgLen: uint32(len(payload))},
			Payload: payload,
		},
		MTU:     wire.DefaultMTU,
		Records: recs,
		Keys:    aead,
		CtxID:   ctxID,
	}, plains
}

// TestSendSegmentCopiesDescriptor overwrites the caller's TxSegment with
// a different segment right after SendSegment returns and submits it
// again, the way a producer reusing one descriptor does. The first
// submission's packets must carry its own headers, payload and sealed
// records: descriptor processing happens later in virtual time, so a NIC
// that kept the caller's pointer would cut the second segment twice.
func TestSendSegmentCopiesDescriptor(t *testing.T) {
	r := newRig(t, 1)
	aead := testKeys(t)
	d, plains := recordSeg(aead, 1, 42, 0, 0x10)
	released := 0
	d.Release = func() { released++ }
	second, plains2 := recordSeg(aead, 2, 43, 100, 0x60)
	second.Pkt.Overlay.SrcPort = 11
	r.eng.At(0, func() {
		// Warm context 43 so the second submission's Resync runs.
		r.nic.SendSegment(0, offloadSeg(t, aead, 43, 7, false, []byte("w")))
		r.nic.SendSegment(0, d)
		*d = *second
		d.Resync = true
		r.nic.SendSegment(0, d)
	})
	r.eng.Run()
	if released != 1 {
		t.Fatalf("first submission's Release ran %d times, want 1", released)
	}
	check := func(msgID uint64, srcPort uint16, seq uint64, plains [][]byte) {
		t.Helper()
		var stream []byte
		idx := uint16(0)
		for _, p := range r.got {
			if p.Overlay.MsgID != msgID {
				continue
			}
			if p.Overlay.SrcPort != srcPort || p.Overlay.DstPort != 10 || p.IP.Src != 1 || p.IP.Dst != 2 || p.IP.ID != idx {
				t.Fatalf("message %d packet %d headers: %+v %+v", msgID, idx, p.IP, p.Overlay)
			}
			stream = append(stream, p.Payload...)
			idx++
		}
		if idx != 3 {
			t.Fatalf("message %d: %d packets, want 3", msgID, idx)
		}
		for i, want := range plains {
			n := tlsrec.RecordWireLen(len(want), 0)
			pt, _, err := aead.OpenRecord(seq+uint64(i), stream[:n])
			if err != nil || !bytes.Equal(pt, want) {
				t.Fatalf("message %d record %d: %v", msgID, i, err)
			}
			stream = stream[n:]
		}
	}
	check(1, 9, 0, plains)
	check(2, 11, 100, plains2)
	if r.nic.Stats.Corrupted != 0 || r.nic.Stats.Resyncs != 1 {
		t.Fatalf("stats = %+v", r.nic.Stats)
	}
}

// TestSendSegmentAllocs gates the warmed NIC transmit path at zero
// allocations per segment for the four kinds of submission the stacks
// make: a NoTSO control packet, a copying TSO segment (Release set), a
// gathering TSO segment (a list of parts) and an offload segment with a
// resync descriptor. Each submits a TxSegment literal, which must stay
// on the caller's stack.
func TestSendSegmentAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	nic := New(eng, cm, net, 1, 2)
	got := 0
	net.Attach(2, func(p *wire.Packet) { got += len(p.Payload); p.Release() })
	aead := testKeys(t)
	hdr := func(pkt *wire.Packet, n int) {
		pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2}
		pkt.Overlay = wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgLen: uint32(n)}
	}
	ctrl := []byte("ack")
	scratch := bytes.Repeat([]byte{0xAB}, 64<<10)
	plain := bytes.Repeat([]byte{0xCD}, 4000)
	sealed := make([]byte, tlsrec.RecordWireLen(len(plain), 0))
	recs := []RecordDesc{{Off: 0, InnerLen: len(plain) + 1, Seq: 9}}
	release := func() {}
	// scratch again as queued chunks of a stream: record-sized parts,
	// an empty one, and a tail that ends mid-packet.
	parts := [][]byte{scratch[:16029], scratch[16029:32058], scratch[32058:32058], scratch[32058:]}
	kinds := []struct {
		name string
		want int
		send func()
	}{
		{"notso-control", len(ctrl), func() {
			pkt := nic.AcquirePacket()
			hdr(pkt, len(ctrl))
			pkt.SetPayload(ctrl)
			nic.SendSegment(1, &TxSegment{Pkt: pkt, MTU: wire.DefaultMTU, NoTSO: true})
		}},
		{"tso-release", len(scratch), func() {
			pkt := nic.AcquirePacket()
			hdr(pkt, len(scratch))
			pkt.Payload = scratch
			nic.SendSegment(0, &TxSegment{Pkt: pkt, MTU: wire.DefaultMTU, Release: release})
		}},
		{"tso-gather", len(scratch), func() {
			pkt := nic.AcquirePacket()
			hdr(pkt, len(scratch))
			nic.SendSegment(0, &TxSegment{Pkt: pkt, Parts: parts, MTU: wire.DefaultMTU, Release: release})
		}},
		{"offload-resync", len(sealed), func() {
			tlsrec.WriteRecordShell(sealed, 0, wire.RecordTypeApplicationData, plain, 0)
			pkt := nic.AcquirePacket()
			hdr(pkt, len(sealed))
			pkt.Payload = sealed
			nic.SendSegment(0, &TxSegment{
				Pkt: pkt, MTU: wire.DefaultMTU,
				Records: recs, Keys: aead, CtxID: 5, Resync: true,
				Release: release,
			})
		}},
	}
	for _, k := range kinds {
		run := func() {
			got = 0
			k.send()
			eng.Run()
			if got != k.want {
				t.Fatalf("%s: %d of %d bytes delivered", k.name, got, k.want)
			}
		}
		for i := 0; i < 8; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per warmed SendSegment, want 0", k.name, allocs)
		}
	}
	if nic.Stats.Resyncs == 0 || nic.Stats.Corrupted != 0 {
		t.Fatalf("offload kind did not resync cleanly: %+v", nic.Stats)
	}
}
