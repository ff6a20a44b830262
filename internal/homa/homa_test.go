package homa

import (
	"bytes"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/sim"
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
		b[i] = byte(i*31 + 7)
	}
	return b
}

func TestSingleSmallMessage(t *testing.T) {
	w := newWorld(1)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	var got []Delivery
	srv.OnMessage(func(d Delivery) {
		d.Payload = append([]byte(nil), d.Payload...) // borrowed until return
		got = append(got, d)
	})

	msg := pattern(64)
	w.eng.At(0, func() { cli.Send(2, 100, msg, 0) })
	w.eng.Run()

	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	d := got[0]
	if !bytes.Equal(d.Payload, msg) {
		t.Fatal("payload corrupted")
	}
	if d.Src != 1 || d.SrcPort != cli.Port() || d.MsgID != 0 {
		t.Fatalf("delivery metadata: %+v", d)
	}
	if d.Recv < 5*sim.Microsecond || d.Recv > 50*sim.Microsecond {
		t.Fatalf("one-way latency %v outside plausible band", d.Recv)
	}
	if srv.Stats.MsgsDelivered != 1 || cli.Stats.MsgsSent != 1 {
		t.Fatal("stats not updated")
	}
}

func TestManyMessagesManyPeers(t *testing.T) {
	w := newWorld(2)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	var got int
	var total int
	srv.OnMessage(func(d Delivery) { got++; total += len(d.Payload) })

	cli1 := NewSocket(w.a, Config{}, nil)
	cli2 := NewSocket(w.a, Config{}, nil)
	w.eng.At(0, func() {
		for i := 0; i < 20; i++ {
			cli1.Send(2, 100, pattern(100+i), i%12)
			cli2.Send(2, 100, pattern(1000+i), i%12)
		}
	})
	w.eng.Run()
	if got != 40 {
		t.Fatalf("deliveries = %d, want 40", got)
	}
	wantTotal := 0
	for i := 0; i < 20; i++ {
		wantTotal += 100 + i + 1000 + i
	}
	if total != wantTotal {
		t.Fatalf("bytes = %d, want %d", total, wantTotal)
	}
}

func TestMultiSegmentMessageUsesGrants(t *testing.T) {
	w := newWorld(3)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	var got []byte
	srv.OnMessage(func(d Delivery) { got = append([]byte(nil), d.Payload...) })

	msg := pattern(500 * 1000) // 500 KB, well beyond unscheduled bytes
	w.eng.At(0, func() { cli.Send(2, 100, msg, 0) })
	w.eng.Run()

	if !bytes.Equal(got, msg) {
		t.Fatalf("large message corrupted (got %d bytes)", len(got))
	}
	if srv.Stats.GrantsSent == 0 {
		t.Fatal("no grants for a scheduled message")
	}
}

func TestUnscheduledOnlyNoGrants(t *testing.T) {
	w := newWorld(4)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	done := false
	srv.OnMessage(func(d Delivery) { done = true })
	w.eng.At(0, func() { cli.Send(2, 100, pattern(8192), 0) })
	w.eng.Run()
	if !done {
		t.Fatal("not delivered")
	}
	if srv.Stats.GrantsSent != 0 {
		t.Fatalf("grants = %d for fully unscheduled message", srv.Stats.GrantsSent)
	}
}

func TestLossRecovery(t *testing.T) {
	w := newWorld(5)
	w.net.LossProb = 0.05
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	var got [][]byte
	srv.OnMessage(func(d Delivery) { got = append(got, append([]byte(nil), d.Payload...)) })

	msgs := [][]byte{pattern(64), pattern(20000), pattern(120000)}
	w.eng.At(0, func() {
		for i, m := range msgs {
			cli.Send(2, 100, m, i)
		}
	})
	w.eng.RunUntil(2 * sim.Second)
	if len(got) != len(msgs) {
		t.Fatalf("delivered %d of %d under loss", len(got), len(msgs))
	}
	for _, g := range got {
		found := false
		for _, m := range msgs {
			if bytes.Equal(g, m) {
				found = true
			}
		}
		if !found {
			t.Fatal("delivered message corrupted under loss")
		}
	}
}

func TestTotalLossThenRecovery(t *testing.T) {
	// All unscheduled packets lost: sender timer must re-push.
	w := newWorld(6)
	w.net.LossProb = 1.0
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	delivered := false
	srv.OnMessage(func(d Delivery) { delivered = true })
	w.eng.At(0, func() { cli.Send(2, 100, pattern(64), 0) })
	w.eng.At(sim.Time(3*sim.Millisecond), func() { w.net.LossProb = 0 })
	w.eng.RunUntil(1 * sim.Second)
	if !delivered {
		t.Fatal("message never recovered after loss burst")
	}
	if cli.Stats.Retransmits == 0 {
		t.Fatal("expected sender-timeout retransmission")
	}
}

func TestDuplicatePacketsIgnored(t *testing.T) {
	w := newWorld(7)
	w.net.DupProb = 1.0
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	count := 0
	srv.OnMessage(func(d Delivery) { count++ })
	w.eng.At(0, func() { cli.Send(2, 100, pattern(5000), 0) })
	w.eng.RunUntil(100 * sim.Millisecond)
	if count != 1 {
		t.Fatalf("delivered %d times with duplication", count)
	}
	if srv.Stats.SpuriousPkts == 0 {
		t.Fatal("duplicates should be counted spurious")
	}
}

func TestReorderTolerance(t *testing.T) {
	w := newWorld(8)
	w.net.ReorderProb = 0.3
	w.net.ReorderDelay = 20 * sim.Microsecond
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	var got []byte
	srv.OnMessage(func(d Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(50000)
	w.eng.At(0, func() { cli.Send(2, 100, msg, 0) })
	w.eng.RunUntil(1 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("reordering broke reassembly")
	}
}

func TestNoTSOVariantDelivers(t *testing.T) {
	w := newWorld(9)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{NoTSO: true}, nil)
	var got []byte
	srv.OnMessage(func(d Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(8192)
	w.eng.At(0, func() { cli.Send(2, 100, msg, 0) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("NoTSO message corrupted")
	}
}

func TestJumboMTU(t *testing.T) {
	w := newWorld(10)
	srv := NewSocket(w.b, Config{Port: 100, MTU: wire.JumboMTU}, nil)
	cli := NewSocket(w.a, Config{MTU: wire.JumboMTU}, nil)
	var got []byte
	srv.OnMessage(func(d Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := pattern(8192)
	w.eng.At(0, func() { cli.Send(2, 100, msg, 0) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("jumbo message corrupted")
	}
	// 8 KB fits one jumbo packet: exactly 1 data packet + 1 ack on wire.
	if w.a.NIC.Stats.TxPackets != 1 {
		t.Fatalf("client tx packets = %d, want 1", w.a.NIC.Stats.TxPackets)
	}
}

func TestJumboFasterThanDefaultMTU(t *testing.T) {
	run := func(mtu int) sim.Time {
		w := newWorld(11)
		srv := NewSocket(w.b, Config{Port: 100, MTU: mtu}, nil)
		cli := NewSocket(w.a, Config{MTU: mtu}, nil)
		var at sim.Time
		srv.OnMessage(func(d Delivery) { at = d.Recv })
		w.eng.At(0, func() { cli.Send(2, 100, pattern(8192), 0) })
		w.eng.Run()
		return at
	}
	if run(wire.JumboMTU) >= run(wire.DefaultMTU) {
		t.Fatal("9K MTU should cut per-packet costs (§5.2)")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	w := newWorld(12)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	srv.OnMessage(func(d Delivery) {
		srv.Send(d.Src, d.SrcPort, d.Payload, d.AppThread)
	})
	var rtt sim.Time
	cli.OnMessage(func(d Delivery) { rtt = d.Recv })
	w.eng.At(0, func() { cli.Send(2, 100, pattern(64), 0) })
	w.eng.Run()
	if rtt == 0 {
		t.Fatal("no echo")
	}
	if rtt < 10*sim.Microsecond || rtt > 60*sim.Microsecond {
		t.Fatalf("64B echo RTT = %v, outside plausible band", rtt)
	}
	t.Logf("64B Homa RTT: %v", rtt)
}

// TestHandshakePacketsReleased: a handshake flight is cut at the MTU,
// and homa returns every handshake packet it receives to the pool once
// the OnHandshake hook returns, or at once when no hook is registered.
func TestHandshakePacketsReleased(t *testing.T) {
	flight := pattern(3000) // three packets at the default MTU
	for _, hook := range []bool{false, true} {
		w := newWorld(21)
		srv := NewSocket(w.b, Config{Port: 100}, nil)
		cli := NewSocket(w.a, Config{}, nil)
		var got []byte
		if hook {
			srv.OnHandshake(func(src uint32, srcPort uint16, payload []byte) {
				if src != 1 || srcPort != cli.Port() {
					t.Errorf("handshake from %d:%d, want 1:%d", src, srcPort, cli.Port())
				}
				got = append(got, payload...)
			})
		}
		w.eng.At(0, func() { cli.SendHandshake(2, 100, flight, 0) })
		w.eng.Run()
		if hook && !bytes.Equal(got, flight) {
			t.Errorf("hook saw %d bytes, want the %d-byte flight", len(got), len(flight))
		}
		if out := w.net.OutstandingPackets(); out != 0 {
			t.Errorf("hook=%v: %d packets outstanding after the flight", hook, out)
		}
	}
}

func TestEmptyMessagePanics(t *testing.T) {
	w := newWorld(13)
	cli := NewSocket(w.a, Config{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("empty Send must panic")
		}
	}()
	cli.Send(2, 100, nil, 0)
}

func TestCloseUnbinds(t *testing.T) {
	w := newWorld(14)
	s := NewSocket(w.b, Config{Port: 100}, nil)
	s.Close()
	s.Close() // idempotent
	// Rebinding the port must now work.
	_ = NewSocket(w.b, Config{Port: 100}, nil)
}

func TestSendOnClosedPanics(t *testing.T) {
	w := newWorld(15)
	s := NewSocket(w.a, Config{}, nil)
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed socket must panic")
		}
	}()
	s.Send(2, 100, []byte{1}, 0)
}

func TestMessageIDsPerPeerMonotonic(t *testing.T) {
	w := newWorld(16)
	cli := NewSocket(w.a, Config{}, nil)
	_ = NewSocket(w.b, Config{Port: 100}, nil)
	_ = NewSocket(w.b, Config{Port: 101}, nil)
	id0 := cli.Send(2, 100, []byte{1}, 0)
	id1 := cli.Send(2, 100, []byte{1}, 0)
	idOther := cli.Send(2, 101, []byte{1}, 0)
	if id0 != 0 || id1 != 1 || idOther != 0 {
		t.Fatalf("ids = %d,%d,%d (per-peer spaces)", id0, id1, idOther)
	}
	w.eng.Run()
}

func TestStringer(t *testing.T) {
	w := newWorld(17)
	s := NewSocket(w.a, Config{}, nil)
	if s.String() == "" || s.Host() != w.a || s.cfg.MTU == 0 {
		t.Fatal("accessors broken")
	}
}

// fill returns n bytes whose values depend on seed at every position,
// so two messages with different seeds differ in every byte.
func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*31)
	}
	return b
}

// TestBorrowedPayloadDescendingSizes echoes two back-to-back bursts of
// messages of descending size, each with its own fill, over one socket
// pair. Larger messages' send copies and delivery buffers come back to
// the pools before smaller messages take them, and each payload is
// checked byte for byte inside its own callback, so a recycled buffer
// that leaked a stale tail or an earlier message's bytes would show.
func TestBorrowedPayloadDescendingSizes(t *testing.T) {
	w := newWorld(18)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	sizes := []int{150000, 64000, 20000, 4096, 1500, 64, 1}
	const rounds = 2
	// Message k of the run is sizes[k%len(sizes)] bytes with fill seed
	// k. Request IDs count up in send order; echoes come back in
	// delivery order, so the client tells them apart by size within the
	// burst it has outstanding.
	check := func(side string, got []byte, k int) {
		if want := fill(sizes[k%len(sizes)], byte(k)); !bytes.Equal(got, want) {
			t.Errorf("%s of message %d: %d bytes, want %d with fill %d", side, k, len(got), len(want), k)
		}
	}
	srv.OnMessage(func(d Delivery) {
		check("request", d.Payload, int(d.MsgID))
		srv.Send(d.Src, d.SrcPort, d.Payload, d.AppThread)
	})
	echoed := 0
	bufs := make(map[*byte]bool)
	burst := func(r int) {
		for i, n := range sizes {
			cli.Send(2, 100, fill(n, byte(r*len(sizes)+i)), i%12)
		}
	}
	cli.OnMessage(func(d Delivery) {
		k := echoed / len(sizes) * len(sizes)
		for i, n := range sizes {
			if n == len(d.Payload) {
				k += i
			}
		}
		check("echo", d.Payload, k)
		bufs[&d.Payload[0]] = true
		if echoed++; echoed == len(sizes) {
			burst(1)
		}
	})
	w.eng.At(0, func() { burst(0) })
	w.eng.Run()
	if echoed != rounds*len(sizes) {
		t.Fatalf("echoed %d of %d messages", echoed, rounds*len(sizes))
	}
	if len(bufs) >= echoed {
		t.Fatalf("%d deliveries used %d distinct buffers: delivery buffers are not recycled", echoed, len(bufs))
	}
}

// TestRepushedSendBufferNotRecycled loses the first ACK of a PlainCodec
// message, so the sender timer re-pushes a segment that aliases the
// message's send copy. That copy must never return to the send pool,
// while the copies of cleanly acknowledged messages are recycled, and
// every later message must still deliver intact.
func TestRepushedSendBufferNotRecycled(t *testing.T) {
	w := newWorld(19)
	srv := NewSocket(w.b, Config{Port: 100}, nil)
	cli := NewSocket(w.a, Config{}, nil)
	lostAcks := 1
	rx := w.a.NIC.OnRx
	w.a.NIC.OnRx = func(pkt *wire.Packet) {
		if pkt.Overlay.Type == wire.TypeAck && lostAcks > 0 {
			lostAcks--
			pkt.Release()
			return
		}
		rx(pkt)
	}
	const n, size = 4, 4000
	delivered := 0
	srv.OnMessage(func(d Delivery) {
		if !bytes.Equal(d.Payload, fill(size, byte(d.MsgID))) {
			t.Errorf("message %d delivered corrupted", d.MsgID)
		}
		delivered++
	})
	// Messages are spaced well past the sender timeout, so each one's
	// ACK (or the re-push's re-ACK) lands before the next Send.
	bufs := make([]*byte, n)
	for i := 0; i < n; i++ {
		i := i
		w.eng.At(sim.Time(i)*4*senderTimeout, func() {
			id := cli.Send(2, 100, fill(size, byte(i)), 0)
			p, _ := cli.peers.Get(uint64(makePeerKey(2, 100)))
			m, _ := p.out.Get(id)
			bufs[i] = &m.payload[0]
		})
	}
	w.eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if cli.Stats.Retransmits == 0 || srv.Stats.SpuriousPkts == 0 {
		t.Fatal("the lost ACK did not drive a re-push")
	}
	for i := 1; i < n; i++ {
		if bufs[i] == bufs[0] {
			t.Fatalf("message %d reuses the re-pushed message's send buffer", i)
		}
	}
	if bufs[2] != bufs[1] || bufs[3] != bufs[2] {
		t.Fatal("send buffers of acknowledged messages are not recycled")
	}
}
