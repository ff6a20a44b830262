package tcpsim

import (
	"bytes"
	"fmt"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/sim"
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
		b[i] = byte(i*7 + 1)
	}
	return b
}

// connect establishes a client→server connection and returns both ends.
func connect(t *testing.T, w *world, cfg Config) (cli, srv *Conn) {
	t.Helper()
	Listen(w.b, 80, cfg, nil, nil, func(c *Conn) { srv = c })
	var established *Conn
	cli = Dial(w.a, 0, cfg, nil, 2, 80, func(c *Conn) { established = c })
	w.eng.RunUntil(1 * sim.Millisecond)
	if srv == nil || established != cli {
		t.Fatal("connection not established")
	}
	return cli, srv
}

func TestConnectAndExchange(t *testing.T) {
	w := newWorld(1)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(64)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("message mismatch")
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	w := newWorld(2)
	cli, srv := connect(t, w, Config{})
	var got [][]byte
	srv.OnMessage(func(m []byte) { got = append(got, append([]byte(nil), m...)) })
	msgs := [][]byte{pattern(10), pattern(1000), pattern(3), pattern(20000)}
	w.eng.At(w.eng.Now(), func() {
		for _, m := range msgs {
			cli.SendMessage(m)
		}
	})
	w.eng.Run()
	if len(got) != len(msgs) {
		t.Fatalf("messages = %d, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

func TestLargeTransfer(t *testing.T) {
	w := newWorld(3)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(2_000_000) // exceeds window: needs ack clocking
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("large transfer mismatch (%d bytes)", len(got))
	}
}

func TestEchoRTT(t *testing.T) {
	w := newWorld(4)
	cli, srv := connect(t, w, Config{})
	srv.OnMessage(func(m []byte) { srv.SendMessage(m) })
	var rtt sim.Time
	start := w.eng.Now()
	cli.OnMessage(func(m []byte) { rtt = w.eng.Now() - start })
	w.eng.At(start, func() { cli.SendMessage(pattern(64)) })
	w.eng.Run()
	if rtt == 0 {
		t.Fatal("no echo")
	}
	if rtt < 10*sim.Microsecond || rtt > 60*sim.Microsecond {
		t.Fatalf("TCP 64B RTT = %v, implausible", rtt)
	}
	t.Logf("64B TCP RTT: %v", rtt)
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	w := newWorld(5)
	cli, srv := connect(t, w, Config{})
	w.net.LossProb = 0.03
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(500_000)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.RunUntil(3 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("transfer not recovered under loss")
	}
	if cli.Stats.FastRetx == 0 && cli.Stats.RTORetx == 0 {
		t.Fatal("no retransmissions recorded under loss")
	}
}

func TestRTORecoversTotalLoss(t *testing.T) {
	w := newWorld(6)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	w.net.LossProb = 1.0
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(pattern(100)) })
	at := w.eng.Now()
	w.eng.At(at+sim.Time(8*sim.Millisecond), func() { w.net.LossProb = 0 })
	w.eng.RunUntil(at + sim.Time(300*sim.Millisecond))
	if got == nil {
		t.Fatal("RTO did not recover the loss")
	}
	if cli.Stats.RTORetx == 0 {
		t.Fatal("expected RTO retransmission")
	}
}

func TestReorderingHandled(t *testing.T) {
	w := newWorld(7)
	cli, srv := connect(t, w, Config{})
	w.net.ReorderProb = 0.2
	w.net.ReorderDelay = 30 * sim.Microsecond
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(300_000)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.RunUntil(2 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("reordered transfer mismatch")
	}
}

func TestBidirectional(t *testing.T) {
	w := newWorld(8)
	cli, srv := connect(t, w, Config{})
	var fromCli, fromSrv []byte
	srv.OnMessage(func(m []byte) { fromCli = append([]byte(nil), m...) })
	cli.OnMessage(func(m []byte) { fromSrv = append([]byte(nil), m...) })
	w.eng.At(w.eng.Now(), func() {
		cli.SendMessage(pattern(100))
		srv.SendMessage(pattern(200))
	})
	w.eng.Run()
	if len(fromCli) != 100 || len(fromSrv) != 200 {
		t.Fatalf("bidirectional exchange broken: %d/%d", len(fromCli), len(fromSrv))
	}
}

func TestMultipleConnectionsSameServer(t *testing.T) {
	w := newWorld(9)
	var srvConns []*Conn
	Listen(w.b, 80, Config{}, nil, nil, func(c *Conn) {
		c.OnMessage(func(m []byte) { c.SendMessage(m) })
		srvConns = append(srvConns, c)
	})
	const N = 20
	echoed := 0
	for i := 0; i < N; i++ {
		i := i
		Dial(w.a, i%12, Config{}, nil, 2, 80, func(c *Conn) {
			c.OnMessage(func(m []byte) { echoed++ })
			c.SendMessage(pattern(100 + i))
		})
	}
	w.eng.Run()
	if echoed != N || len(srvConns) != N {
		t.Fatalf("echoed=%d conns=%d, want %d", echoed, len(srvConns), N)
	}
}

func TestEmptyMessagePanics(t *testing.T) {
	w := newWorld(10)
	cli, _ := connect(t, w, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("empty message must panic")
		}
	}()
	cli.SendMessage(nil)
}

// TestSetCodecAfterSendPanics drives SetCodec's stream-data contract: a
// message is encoded when SendMessage is called, so a codec installed
// after it would leave that message under the old one. SetCodec before
// any data is the handshake's normal step; after a send it is refused
// as a wiring bug, as SetCodec(nil) is, and the message still arrives
// whole under the codec it was encoded with.
func TestSetCodecAfterSendPanics(t *testing.T) {
	w := newWorld(12)
	cli, srv := connect(t, w, Config{})
	cli.SetCodec(&PlainCodec{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(3000)
	cli.SendMessage(msg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCodec after SendMessage must panic")
			}
		}()
		cli.SetCodec(&PlainCodec{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCodec(nil) must panic")
			}
		}()
		srv.SetCodec(nil)
	}()
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("message after the refused SetCodec: %d bytes, want %d", len(got), len(msg))
	}
}

func TestCloseStopsTraffic(t *testing.T) {
	w := newWorld(11)
	cli, _ := connect(t, w, Config{})
	cli.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed conn must panic")
		}
	}()
	cli.SendMessage(pattern(10))
}

// TestFramingHelper checks FramedRange, which cuts a range of the
// framed message prefix ‖ msg into its prefix and message parts, on
// every range of a small message: the two parts concatenate to the
// range, and each is a slice of its own input.
func TestFramingHelper(t *testing.T) {
	prefix, msg := []byte{0, 0, 0, 3}, []byte("abc")
	framed := append(append([]byte(nil), prefix...), msg...)
	for off := 0; off <= len(framed); off++ {
		for end := off; end <= len(framed); end++ {
			head, body := FramedRange(prefix, msg, off, end)
			if got := append(append([]byte(nil), head...), body...); !bytes.Equal(got, framed[off:end]) {
				t.Fatalf("FramedRange(%d, %d) = %q ‖ %q, want %q", off, end, head, body, framed[off:end])
			}
			if len(head) > 0 && &head[0] != &prefix[off] {
				t.Fatalf("FramedRange(%d, %d): head is not a slice of the prefix", off, end)
			}
			if len(body) > 0 && &body[0] != &msg[max(off-len(prefix), 0)] {
				t.Fatalf("FramedRange(%d, %d): body is not a slice of the message", off, end)
			}
		}
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

// TestBorrowedMessageDescendingSizes echoes two back-to-back bursts of
// messages of descending size, each with its own fill, over one
// connection. The bursts span many read cycles, so the receive buffers
// compact around unconsumed tails and send descriptors and chunks are
// recycled from larger messages to smaller ones; each message is
// checked byte for byte inside its own callback, so a recycled buffer
// that leaked a stale tail or an earlier message's bytes would show.
// The lossy run retransmits retained chunks long after the echoed
// message they were encoded from was handed back to the connection.
func TestBorrowedMessageDescendingSizes(t *testing.T) {
	for _, loss := range []float64{0, 0.02} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			testBorrowedMessageDescendingSizes(t, loss)
		})
	}
}

func testBorrowedMessageDescendingSizes(t *testing.T, loss float64) {
	w := newWorld(13)
	cli, srv := connect(t, w, Config{})
	w.net.LossProb = loss
	sizes := []int{150000, 64000, 20000, 4096, 1500, 64, 1}
	const rounds = 2
	// Message k of the run is sizes[k%len(sizes)] bytes with fill seed
	// k; the stream keeps order, so each side counts.
	check := func(side string, got []byte, k int) {
		want := fill(sizes[k%len(sizes)], byte(k))
		if !bytes.Equal(got, want) {
			t.Errorf("%s of message %d: %d bytes, want %d with fill %d", side, k, len(got), len(want), k)
		}
	}
	requests := 0
	srv.OnMessage(func(m []byte) {
		check("request", m, requests)
		requests++
		srv.SendMessage(m)
	})
	burst := func(r int) {
		for i, n := range sizes {
			cli.SendMessage(fill(n, byte(r*len(sizes)+i)))
		}
	}
	echoed := 0
	cli.OnMessage(func(m []byte) {
		check("echo", m, echoed)
		if echoed++; echoed == len(sizes) {
			burst(1)
		}
	})
	w.eng.At(w.eng.Now(), func() { burst(0) })
	w.eng.Run()
	if requests != rounds*len(sizes) || echoed != rounds*len(sizes) {
		t.Fatalf("requests %d, echoes %d, want %d each", requests, echoed, rounds*len(sizes))
	}
	if len(cli.sendFree) == 0 || len(srv.sendFree) == 0 {
		t.Fatal("send descriptors are not recycled")
	}
}
