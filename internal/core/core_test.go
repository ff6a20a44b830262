package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

type world struct {
	eng  *sim.Engine
	net  *netsim.Network
	a, b *cpusim.Host
}

func newWorld(seed int64) *world {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return &world{
		eng: eng, net: net,
		a: cpusim.NewHost(eng, cm, net, 1, 4, 12),
		b: cpusim.NewHost(eng, cm, net, 2, 4, 12),
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*17 + 3)
	}
	return b
}

// pair builds two SMT sockets with registered sessions.
func pair(t *testing.T, w *world, hw bool) (cli, srv *Socket) {
	t.Helper()
	srv = NewSocket(w.b, Config{Transport: homa.Config{Port: 443}, HWOffload: hw})
	cli = NewSocket(w.a, Config{HWOffload: hw})
	if err := PairSessions(cli, cli.Port(), srv, 443, 9); err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

func TestEncryptedDeliverySW(t *testing.T) { testEncryptedDelivery(t, false) }
func TestEncryptedDeliveryHW(t *testing.T) { testEncryptedDelivery(t, true) }

func testEncryptedDelivery(t *testing.T, hw bool) {
	w := newWorld(1)
	cli, srv := pair(t, w, hw)
	var got []byte
	srv.OnMessage(func(d homa.Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(5000)
	w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("hw=%v: decrypted payload mismatch (%d bytes)", hw, len(got))
	}
	// Ciphertext actually went over the wire: no plaintext bytes visible.
	if w.net.Delivered.N == 0 {
		t.Fatal("nothing on the wire")
	}
}

func TestWirePayloadIsCiphertext(t *testing.T) {
	w := newWorld(2)
	cli, srv := pair(t, w, false)
	srv.OnMessage(func(d homa.Delivery) {})
	msg := bytes.Repeat([]byte("SECRET-"), 100)

	// Snoop the wire by interposing on the network.
	var sniffed [][]byte
	w.net.Attach(2, func(p *wire.Packet) {
		sniffed = append(sniffed, append([]byte(nil), p.Payload...))
		w.b.NIC.OnRx(p)
	})
	// Re-attach destination: NIC.OnRx dispatches into the host.
	w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
	w.eng.Run()
	joined := bytes.Join(sniffed, nil)
	if bytes.Contains(joined, []byte("SECRET-")) {
		t.Fatal("plaintext leaked onto the wire")
	}
}

func TestMultiSegmentLargeMessage(t *testing.T) {
	for _, hw := range []bool{false, true} {
		w := newWorld(3)
		cli, srv := pair(t, w, hw)
		var got []byte
		srv.OnMessage(func(d homa.Delivery) { got = append([]byte(nil), d.Payload...) })
		msg := pattern(300_000) // 5 segments, 19 records
		w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
		w.eng.Run()
		if !bytes.Equal(got, msg) {
			t.Fatalf("hw=%v: large message mismatch", hw)
		}
	}
}

func TestLossRecoveryEncrypted(t *testing.T) {
	for _, hw := range []bool{false, true} {
		w := newWorld(4)
		w.net.LossProb = 0.05
		cli, srv := pair(t, w, hw)
		var got []byte
		srv.OnMessage(func(d homa.Delivery) { got = append([]byte(nil), d.Payload...) })
		msg := pattern(150_000)
		w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
		w.eng.RunUntil(2 * sim.Second)
		if !bytes.Equal(got, msg) {
			t.Fatalf("hw=%v: message not recovered under loss", hw)
		}
	}
}

func TestReplayIsDropped(t *testing.T) {
	w := newWorld(5)
	cli, srv := pair(t, w, false)
	deliveries := 0
	srv.OnMessage(func(d homa.Delivery) { deliveries++ })

	// Capture and replay the client's packets.
	var captured []*wire.Packet
	w.net.Attach(2, func(p *wire.Packet) {
		captured = append(captured, p.Clone())
		w.b.NIC.OnRx(p)
	})
	w.eng.At(0, func() { cli.Send(2, 443, pattern(64), 0) })
	w.eng.At(sim.Time(5*sim.Millisecond), func() {
		for _, p := range captured {
			w.b.NIC.OnRx(p.Clone()) // attacker replays the exact packets
		}
	})
	w.eng.RunUntil(50 * sim.Millisecond)
	if deliveries != 1 {
		t.Fatalf("deliveries = %d; replayed message must not be re-delivered", deliveries)
	}
	if srv.Stats.Replays == 0 && srv.Stats.SpuriousPkts == 0 {
		t.Fatal("replay not registered")
	}
}

func TestTamperedPacketRejected(t *testing.T) {
	w := newWorld(6)
	cli, srv := pair(t, w, false)
	deliveries := 0
	srv.OnMessage(func(d homa.Delivery) { deliveries++ })

	// Flip a payload bit in flight, but only the first time: the
	// transport's RESEND recovery then repairs the message.
	tampered := false
	w.net.Attach(2, func(p *wire.Packet) {
		if !tampered && p.Overlay.Type == wire.TypeData && len(p.Payload) > 20 {
			p.Payload[15] ^= 0x01
			tampered = true
		}
		w.b.NIC.OnRx(p)
	})
	w.eng.At(0, func() { cli.Send(2, 443, pattern(600), 0) })
	w.eng.RunUntil(100 * sim.Millisecond)
	if !tampered {
		t.Fatal("test never tampered")
	}
	if srv.Stats.CorruptSegs == 0 {
		t.Fatal("tampering not detected")
	}
	if deliveries != 1 {
		t.Fatalf("deliveries = %d; message should be recovered exactly once", deliveries)
	}
}

// An injected packet (attacker-forged, no valid key) must never deliver.
func TestInjectedMessageRejected(t *testing.T) {
	w := newWorld(7)
	_, srv := pair(t, w, false)
	deliveries := 0
	srv.OnMessage(func(d homa.Delivery) { deliveries++ })

	w.eng.At(0, func() {
		forged := &wire.Packet{
			IP: wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2},
			Overlay: wire.OverlayHeader{
				SrcPort: 40000, DstPort: 443, Type: wire.TypeData,
				MsgID: 999, MsgLen: 40,
			},
			Payload: pattern(40 + 26 + 16),
		}
		w.net.Deliver(forged)
	})
	w.eng.RunUntil(100 * sim.Millisecond)
	if deliveries != 0 {
		t.Fatal("forged message delivered")
	}
}

func TestHWOffloadProducesValidRecords(t *testing.T) {
	w := newWorld(8)
	cli, srv := pair(t, w, true)
	var got []byte
	srv.OnMessage(func(d homa.Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(40_000) // one segment, 3 records
	w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("HW-offloaded message mismatch")
	}
	if w.a.NIC.Stats.SealedRecs != 3 {
		t.Fatalf("NIC sealed %d records, want 3", w.a.NIC.Stats.SealedRecs)
	}
	if w.a.NIC.Stats.Corrupted != 0 {
		t.Fatal("NIC corrupted records in the normal path")
	}
	codec := cli.Codecs()[0]
	if codec.Stats.RecordsHW != 3 || codec.Stats.RecordsSW != 0 {
		t.Fatalf("codec stats: %+v", codec.Stats)
	}
}

// Messages from different app threads go to different NIC queues; with
// per-(session,queue) contexts nothing corrupts (§4.4.2). Each queue's
// context simply resyncs when a new message reuses it.
func TestConcurrentMessagesAcrossQueuesHW(t *testing.T) {
	w := newWorld(9)
	cli, srv := pair(t, w, true)
	got := map[string]bool{}
	srv.OnMessage(func(d homa.Delivery) { got[string(d.Payload[:8])] = true })
	w.eng.At(0, func() {
		for i := 0; i < 12; i++ {
			msg := pattern(2000)
			copy(msg, []byte{byte(i), 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, byte(i)})
			cli.Send(2, 443, msg, i) // thread i → queue i
		}
	})
	w.eng.Run()
	if len(got) != 12 {
		t.Fatalf("delivered %d of 12 concurrent messages", len(got))
	}
	if w.a.NIC.Stats.Corrupted != 0 {
		t.Fatalf("corrupted = %d; per-queue contexts must prevent the §3.2 hazard", w.a.NIC.Stats.Corrupted)
	}
	// 12 messages over 12 queues: one context per queue used.
	if w.a.NIC.Stats.CtxAllocs != 12 {
		t.Fatalf("ctx allocs = %d, want 12", w.a.NIC.Stats.CtxAllocs)
	}
}

// Sequential messages from the same thread reuse one context via resync,
// not reallocation (§4.4.2).
func TestContextReuseViaResync(t *testing.T) {
	w := newWorld(10)
	cli, srv := pair(t, w, true)
	n := 0
	srv.OnMessage(func(d homa.Delivery) { n++ })
	w.eng.At(0, func() {
		cli.Send(2, 443, pattern(100), 3)
	})
	w.eng.At(sim.Time(sim.Millisecond), func() {
		cli.Send(2, 443, pattern(100), 3)
	})
	w.eng.Run()
	if n != 2 {
		t.Fatalf("delivered %d", n)
	}
	st := w.a.NIC.Stats
	if st.CtxAllocs != 1 {
		t.Fatalf("ctx allocs = %d, want 1 (reuse)", st.CtxAllocs)
	}
	// Message 1's records start at composite seq (1<<16), while the
	// context sits at (0<<16)+1 — a resync is required and sufficient.
	if st.Resyncs != 1 || st.Corrupted != 0 {
		t.Fatalf("resyncs=%d corrupted=%d", st.Resyncs, st.Corrupted)
	}
}

func TestPaddingConcealsSizes(t *testing.T) {
	w := newWorld(11)
	srv := NewSocket(w.b, Config{Transport: homa.Config{Port: 443}, PadTo: 512})
	cli := NewSocket(w.a, Config{PadTo: 512})
	if err := PairSessions(cli, cli.Port(), srv, 443, 5); err != nil {
		t.Fatal(err)
	}
	var lens []int
	w.net.Attach(2, func(p *wire.Packet) {
		if p.Overlay.Type == wire.TypeData {
			lens = append(lens, len(p.Payload))
		}
		w.b.NIC.OnRx(p)
	})
	var got []byte
	srv.OnMessage(func(d homa.Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(100)
	w.eng.At(0, func() { cli.Send(2, 443, msg, 0) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("padded message mismatch")
	}
	want := wire.FramingHeaderLen + wire.RecordHeaderLen + 512 + wire.GCMTagLen
	if len(lens) != 1 || lens[0] != want {
		t.Fatalf("wire payload = %v, want [%d] (padded)", lens, want)
	}
}

func TestUnregisteredPeerDropsTraffic(t *testing.T) {
	w := newWorld(12)
	srv := NewSocket(w.b, Config{Transport: homa.Config{Port: 443}})
	cliPlain := homa.NewSocket(w.a, homa.Config{Proto: wire.ProtoSMT}, nil)
	deliveries := 0
	srv.OnMessage(func(d homa.Delivery) { deliveries++ })
	w.eng.At(0, func() { cliPlain.Send(2, 443, pattern(64), 0) })
	w.eng.RunUntil(20 * sim.Millisecond)
	if deliveries != 0 {
		t.Fatal("unregistered peer's message delivered")
	}
}

func TestSendWithoutSessionPanics(t *testing.T) {
	w := newWorld(13)
	cli := NewSocket(w.a, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Send without session must panic")
		}
	}()
	cli.Send(2, 443, pattern(10), 0)
}

func TestOversizeMessagePanics(t *testing.T) {
	w := newWorld(14)
	srv := NewSocket(w.b, Config{Transport: homa.Config{Port: 443},
		Alloc: tlsrec.BitAllocation{MsgIDBits: 60, RecIdxBits: 4}})
	cli := NewSocket(w.a, Config{Alloc: tlsrec.BitAllocation{MsgIDBits: 60, RecIdxBits: 4}})
	if err := PairSessions(cli, cli.Port(), srv, 443, 1); err != nil {
		t.Fatal(err)
	}
	// 4 record-index bits × 16000 B = 256 KB limit.
	defer func() {
		if recover() == nil {
			t.Fatal("oversize message must panic")
		}
	}()
	cli.Send(2, 443, make([]byte, 300_000), 0)
}

func TestRekeyResetsSession(t *testing.T) {
	w := newWorld(15)
	cli, srv := pair(t, w, false)
	n := 0
	srv.OnMessage(func(d homa.Delivery) { n++ })
	w.eng.At(0, func() { cli.Send(2, 443, pattern(64), 0) })
	w.eng.RunUntil(10 * sim.Millisecond)
	// Rekey both ends (resumption), then message ID 0 is valid again.
	if err := PairSessions(cli, cli.Port(), srv, 443, 77); err != nil {
		t.Fatal(err)
	}
	w.eng.At(w.eng.Now(), func() { cli.Send(2, 443, pattern(64), 0) })
	w.eng.RunUntil(20 * sim.Millisecond)
	if n != 2 {
		t.Fatalf("deliveries = %d; rekey must reset the message-ID space", n)
	}
}

func TestCodecWireLenMatchesEncode(t *testing.T) {
	cm := cost.Default()
	c, err := NewCodec(cm, SessionKeys{
		TxKey: testKey(1, 0), TxIV: testIV(1, 1),
		RxKey: testKey(1, 0), RxIV: testIV(1, 1),
	}, tlsrec.DefaultAllocation, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint32, off8 uint8) bool {
		size := int(n%200000) + 1
		msg := pattern(size)
		span := c.SegSpan()
		for off := 0; off < size; off += span {
			seg := span
			if off+seg > size {
				seg = size - off
			}
			enc, _ := c.Encode(0, msg, off, seg, 0, false)
			if len(enc.Payload) != c.WireLen(off, seg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: codec Encode→Decode round-trips any message at any segment.
func TestCodecRoundTripProperty(t *testing.T) {
	cm := cost.Default()
	keys := SessionKeys{TxKey: testKey(2, 0), TxIV: testIV(2, 1), RxKey: testKey(2, 0), RxIV: testIV(2, 1)}
	enc, _ := NewCodec(cm, keys, tlsrec.DefaultAllocation, false, 0, 0)
	dec, _ := NewCodec(cm, keys, tlsrec.DefaultAllocation, false, 0, 0)
	f := func(n uint32, id uint16) bool {
		size := int(n%100000) + 1
		msg := pattern(size)
		span := enc.SegSpan()
		var out []byte
		for off := 0; off < size; off += span {
			segN := span
			if off+segN > size {
				segN = size - off
			}
			s, _ := enc.Encode(uint64(id), msg, off, segN, 0, false)
			plain, _, err := dec.Decode(uint64(id), size, off, s.Payload)
			if err != nil {
				return false
			}
			out = append(out, plain...)
		}
		return bytes.Equal(out, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecAllocs pins the codec benchmarks' claim: once the segment
// pool and decode scratch are warm, encoding a full 64 KB segment
// (software-sealed or in the NIC-offload layout) and releasing it, or
// decoding one, allocates nothing.
func TestCodecAllocs(t *testing.T) {
	ops := newCodecOps(t)
	for _, op := range []struct {
		name string
		run  func()
	}{{"encode", ops.encode}, {"offload encode", ops.encodeHW}, {"decode", ops.decode}} {
		if got := testing.AllocsPerRun(100, op.run); got != 0 {
			t.Errorf("%s of a 64 KB segment allocates %.1f objects/op, want 0", op.name, got)
		}
	}
}

func TestNewCodecValidation(t *testing.T) {
	cm := cost.Default()
	if _, err := NewCodec(cm, SessionKeys{}, tlsrec.DefaultAllocation, false, 0, 0); err == nil {
		t.Fatal("empty keys accepted")
	}
	keys := SessionKeys{TxKey: testKey(1, 0), TxIV: testIV(1, 1), RxKey: testKey(1, 2), RxIV: testIV(1, 3)}
	if _, err := NewCodec(cm, keys, tlsrec.BitAllocation{MsgIDBits: 10, RecIdxBits: 10}, false, 0, 0); err == nil {
		t.Fatal("invalid allocation accepted")
	}
}
