package ktls

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/wire"
)

type world struct {
	eng  *sim.Engine
	net  *netsim.Network
	a, b *cpusim.Host
	cm   *cost.Model
}

func newWorld(seed int64) *world {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return &world{
		eng: eng, net: net, cm: cm,
		a: cpusim.NewHost(eng, cm, net, 1, 4, 12),
		b: cpusim.NewHost(eng, cm, net, 2, 4, 12),
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*5 + 11)
	}
	return b
}

func connectTLS(t *testing.T, w *world, mode Mode) (cli, srv *tcpsim.Conn, cliCodec, srvCodec *Codec) {
	t.Helper()
	ck, sk := PairKeys(3)
	var err error
	srvCodec = nil
	tcpsim.Listen(w.b, 443, tcpsim.Config{}, func(uint32, uint16) tcpsim.Codec {
		c, e := New(w.cm, mode, sk)
		if e != nil {
			t.Fatal(e)
		}
		srvCodec = c
		return c
	}, nil, func(c *tcpsim.Conn) { srv = c })
	cliCodec, err = New(w.cm, mode, ck)
	if err != nil {
		t.Fatal(err)
	}
	cli = tcpsim.Dial(w.a, 0, tcpsim.Config{}, func(uint16) tcpsim.Codec { return cliCodec }, 2, 443, nil)
	w.eng.RunUntil(1 * sim.Millisecond)
	if srv == nil {
		t.Fatal("not connected")
	}
	return
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeKTLSSW, ModeKTLSHW, ModeUserTLS, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

func TestNewValidatesKeys(t *testing.T) {
	if _, err := New(cost.Default(), ModeKTLSSW, Keys{}); err == nil {
		t.Fatal("empty keys accepted")
	}
}

// TestConnKeysMirroredAndUnique: per-connection derivation produces a
// usable mirrored pair (client TX = server RX and vice versa), is
// deterministic, and never hands two connections — or two stacks on the
// same connection — the same keys.
func TestConnKeysMirroredAndUnique(t *testing.T) {
	ck, sk := ConnKeys("ktls-sw", 1, 40001)
	if !bytes.Equal(ck.TxKey, sk.RxKey) || !bytes.Equal(ck.TxIV, sk.RxIV) ||
		!bytes.Equal(ck.RxKey, sk.TxKey) || !bytes.Equal(ck.RxIV, sk.TxIV) {
		t.Fatal("ConnKeys pair is not mirrored")
	}
	if _, err := New(cost.Default(), ModeKTLSSW, ck); err != nil {
		t.Fatalf("derived keys rejected: %v", err)
	}
	ck2, _ := ConnKeys("ktls-sw", 1, 40001)
	if !bytes.Equal(ck.TxKey, ck2.TxKey) {
		t.Fatal("ConnKeys not deterministic")
	}
	seen := map[string]string{string(ck.TxKey): "ktls-sw/1/40001"}
	for _, c := range []struct {
		label string
		addr  uint32
		port  uint16
	}{
		{"ktls-sw", 1, 40002}, // next stream, same client
		{"ktls-sw", 2, 40001}, // same port, different host
		{"tcpls", 1, 40001},   // same connection, different stack
	} {
		k, _ := ConnKeys(c.label, c.addr, c.port)
		id := c.label + "/" + string(rune(c.addr)) + "/" + string(rune(c.port))
		if prev, dup := seen[string(k.TxKey)]; dup {
			t.Errorf("%s shares keys with %s", id, prev)
		}
		seen[string(k.TxKey)] = id
	}
}

// TestConnKeysPinned pins ConnKeys' bytes, which no artifact Value
// shows: a SHA-256 over both ends' keys and IVs for each input, ports 0
// and 65535 included. An argument swapped in the HKDF calls, or any
// other change to the derivation, fails it.
func TestConnKeysPinned(t *testing.T) {
	for _, c := range []struct {
		label string
		addr  uint32
		port  uint16
		want  string
	}{
		{"ktls-sw", 0, 0, "17e2c58e073bc5a4d458bc9e21ce1c41ab67588678424b5069b4a50905edccbe"},
		{"ktls-hw", 0x0a000001, 65535, "c92018c932646bb1bd34172f52e4a07e2fd5dbb5d3a0312d2dc23b303e3b6967"},
		{"tls-user", 1, 40001, "e88d46152d052faa4150c24b605c2433b8ec0f4c04d237a827da1d0dbade0e13"},
		{"tcpls", 0xffffffff, 1, "3d21d860c601afd7b339e47d566b31716a37067a4dd60998f2c6ce08ec1ee798"},
	} {
		ck, sk := ConnKeys(c.label, c.addr, c.port)
		h := sha256.New()
		for _, b := range [][]byte{ck.TxKey, ck.TxIV, ck.RxKey, ck.RxIV, sk.TxKey, sk.TxIV, sk.RxKey, sk.RxIV} {
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("ConnKeys(%q, %#x, %d) digest %s, want %s", c.label, c.addr, c.port, got, c.want)
		}
	}
}

// TestConnKeysCarryTraffic: two connections with independently derived
// keys exchange records end to end — the shared-key shortcut is gone
// from the data path, not just from the constructors.
func TestConnKeysCarryTraffic(t *testing.T) {
	w := newWorld(9)
	srvConns := map[*tcpsim.Conn][]byte{}
	tcpsim.Listen(w.b, 443, tcpsim.Config{}, func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
		_, sk := ConnKeys("ktls-sw", peerAddr, peerPort)
		c, err := New(w.cm, ModeKTLSSW, sk)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, nil, func(c *tcpsim.Conn) {
		c.OnMessage(func(m []byte) { srvConns[c] = append([]byte(nil), m...) })
	})
	var clis []*tcpsim.Conn
	for i := 0; i < 2; i++ {
		cli := tcpsim.Dial(w.a, i, tcpsim.Config{}, func(localPort uint16) tcpsim.Codec {
			ck, _ := ConnKeys("ktls-sw", w.a.Addr, localPort)
			c, err := New(w.cm, ModeKTLSSW, ck)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, 2, 443, nil)
		clis = append(clis, cli)
	}
	w.eng.RunUntil(1 * sim.Millisecond)
	for i, cli := range clis {
		msg := pattern(2000 + i)
		w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
		w.eng.Run()
	}
	if len(srvConns) != 2 {
		t.Fatalf("server accepted %d connections, want 2", len(srvConns))
	}
	sizes := map[int]bool{}
	for _, m := range srvConns {
		sizes[len(m)] = true
	}
	if !sizes[2000] || !sizes[2001] {
		t.Fatalf("per-connection decryption failed: got sizes %v", sizes)
	}
}

func TestEncryptedExchangeAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeKTLSSW, ModeKTLSHW, ModeUserTLS} {
		w := newWorld(1)
		cli, srv, _, _ := connectTLS(t, w, mode)
		var got []byte
		srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
		msg := pattern(5000)
		w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
		w.eng.Run()
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: message mismatch", mode)
		}
	}
}

func TestCiphertextOnWire(t *testing.T) {
	w := newWorld(2)
	cli, srv, _, _ := connectTLS(t, w, ModeKTLSSW)
	srv.OnMessage(func(m []byte) {})
	secret := bytes.Repeat([]byte("TOPSECRET"), 50)
	var sniffed []byte
	w.net.Attach(2, func(p *wire.Packet) {
		sniffed = append(sniffed, p.Payload...)
		w.b.NIC.OnRx(p)
	})
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(secret) })
	w.eng.Run()
	if bytes.Contains(sniffed, []byte("TOPSECRET")) {
		t.Fatal("plaintext leaked onto the wire")
	}
}

func TestHWOffloadSealsOnNIC(t *testing.T) {
	w := newWorld(3)
	cli, srv, _, _ := connectTLS(t, w, ModeKTLSHW)
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(40000) // 3 records
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("hw message mismatch")
	}
	if w.a.NIC.Stats.SealedRecs != 3 {
		t.Fatalf("NIC sealed %d records, want 3", w.a.NIC.Stats.SealedRecs)
	}
	if w.a.NIC.Stats.Corrupted != 0 {
		t.Fatal("in-order kTLS-hw stream must not corrupt")
	}
}

// A dropped packet forces a TCP retransmission of the affected record;
// the kTLS-hw path must resync the NIC context (out-of-order record
// sequence at the engine) and the receiver must still decrypt everything.
func TestHWRetransmitResync(t *testing.T) {
	w := newWorld(4)
	cli, srv, _, _ := connectTLS(t, w, ModeKTLSHW)
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	dropped := false
	n := 0
	w.net.Attach(2, func(p *wire.Packet) {
		n++
		if !dropped && n == 5 && p.Overlay.Type == wire.TypeData {
			dropped = true
			return // drop one mid-stream data packet
		}
		w.b.NIC.OnRx(p)
	})
	msg := pattern(100000) // 7 records
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.RunUntil(1 * sim.Second)
	if !dropped {
		t.Fatal("never dropped")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("message not recovered after retransmission")
	}
	if cli.Stats.FastRetx == 0 && cli.Stats.RTORetx == 0 {
		t.Fatal("no retransmission recorded")
	}
	if w.a.NIC.Stats.Resyncs == 0 {
		t.Fatal("kTLS-hw retransmission must resync the flow context (§3.2)")
	}
	if srv.Stats.DecodeErrors != 0 {
		t.Fatal("decode errors after resync")
	}
}

func TestRecordsSpanMultipleMessages(t *testing.T) {
	w := newWorld(5)
	cli, srv, cc, sc := connectTLS(t, w, ModeKTLSSW)
	var got [][]byte
	srv.OnMessage(func(m []byte) { got = append(got, append([]byte(nil), m...)) })
	msgs := [][]byte{pattern(10), pattern(100000), pattern(1)}
	w.eng.At(w.eng.Now(), func() {
		for _, m := range msgs {
			cli.SendMessage(m)
		}
	})
	w.eng.Run()
	if len(got) != 3 {
		t.Fatalf("messages = %d", len(got))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	if cc.RecordsSealed == 0 || sc.RecordsOpened != cc.RecordsSealed {
		t.Fatalf("record accounting: sealed=%d opened=%d", cc.RecordsSealed, sc.RecordsOpened)
	}
}
