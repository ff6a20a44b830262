package tlsrec_test

// This file checks every record layer against Go's crypto/tls, which
// shares nothing with them but RFC 8446: the record header (§5.1), the
// per-record nonce, IV XOR sequence number (§5.3), and the inner
// plaintext, content ‖ content type ‖ zero padding (§5.2). Each case
// runs a TLS 1.3 handshake between two crypto/tls endpoints over
// net.Pipe, derives the application traffic keys and IVs from the
// secrets the client logs (hkdfx.ExpandLabel, RFC 8446 §7.3), and puts
// one of our record layers in the client's place on the pipe: the
// crypto/tls server must read what it seals, and it must open what the
// server seals.

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"io"
	"maps"
	"math/big"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/hkdfx"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// peer is a crypto/tls TLS 1.3 server whose client, once the handshake
// is done, is one of our record layers: raw is the client's end of the
// pipe, and keys are the client's traffic keys (Tx protects what the
// client sends).
type peer struct {
	tls  *tls.Conn
	raw  net.Conn
	keys tlsrec.Keys
}

// newPeer runs the handshake. The server sends no session ticket, so
// its first record after the handshake is application data, and it
// writes each Write of up to 16 KiB as one record.
func newPeer(t *testing.T) *peer {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		DNSNames:     []string{"smt.test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(leaf)

	cliEnd, srvEnd := net.Pipe()
	t.Cleanup(func() { cliEnd.Close(); srvEnd.Close() })
	// A record either side rejects makes crypto/tls write an alert that
	// nobody reads; the deadline turns that into an error, not a hang.
	deadline := time.Now().Add(10 * time.Second)
	cliEnd.SetDeadline(deadline)
	srvEnd.SetDeadline(deadline)
	srv := tls.Server(srvEnd, &tls.Config{
		Certificates:                []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}},
		MinVersion:                  tls.VersionTLS13,
		SessionTicketsDisabled:      true,
		DynamicRecordSizingDisabled: true,
	})
	var keyLog bytes.Buffer
	cli := tls.Client(cliEnd, &tls.Config{RootCAs: roots, ServerName: "smt.test", MinVersion: tls.VersionTLS13, KeyLogWriter: &keyLog})
	done := make(chan error, 1)
	go func() { done <- srv.Handshake() }()
	if err := cli.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if cs := cli.ConnectionState().CipherSuite; cs != tls.TLS_AES_128_GCM_SHA256 {
		t.Skipf("crypto/tls chose %s; tlsrec implements only TLS_AES_128_GCM_SHA256, which Go prefers on CPUs with AES-GCM instructions", tls.CipherSuiteName(cs))
	}
	txKey, txIV := trafficKeys(t, keyLog.String(), "CLIENT_TRAFFIC_SECRET_0")
	rxKey, rxIV := trafficKeys(t, keyLog.String(), "SERVER_TRAFFIC_SECRET_0")
	return &peer{tls: srv, raw: cliEnd, keys: tlsrec.Keys{TxKey: txKey, TxIV: txIV, RxKey: rxKey, RxIV: rxIV}}
}

// trafficKeys derives the AES-128-GCM key and IV of the traffic secret
// the key log holds under label.
func trafficKeys(t *testing.T, keyLog, label string) (key, iv []byte) {
	t.Helper()
	for _, line := range strings.Split(keyLog, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != label {
			continue
		}
		secret, err := hex.DecodeString(f[2])
		if err != nil {
			t.Fatal(err)
		}
		if key, err = hkdfx.ExpandLabel(secret, "key", nil, tlsrec.Key128); err != nil {
			t.Fatal(err)
		}
		if iv, err = hkdfx.ExpandLabel(secret, "iv", nil, wire.GCMNonceLen); err != nil {
			t.Fatal(err)
		}
		return key, iv
	}
	t.Fatalf("key log has no %s", label)
	return nil, nil
}

// mirror is the server's view of the client's keys.
func mirror(k tlsrec.Keys) tlsrec.Keys {
	return tlsrec.Keys{TxKey: k.RxKey, TxIV: k.RxIV, RxKey: k.TxKey, RxIV: k.TxIV}
}

// read writes records into the pipe and returns the n plaintext bytes
// the crypto/tls server reads from them.
func (p *peer) read(t *testing.T, records []byte, n int) []byte {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := p.raw.Write(records)
		errc <- err
	}()
	got := make([]byte, n)
	if _, err := io.ReadFull(p.tls, got); err != nil {
		t.Fatalf("crypto/tls rejected our records: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return got
}

// write has the crypto/tls server write each of plains as one record,
// and feeds decode what arrives on the pipe, in reads that cut records
// anywhere, until it has returned n plaintext bytes.
func (p *peer) write(t *testing.T, plains [][]byte, n int, decode func(dst, data []byte) ([]byte, sim.Time, error)) []byte {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		for _, b := range plains {
			if _, err := p.tls.Write(b); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var out []byte
	buf := make([]byte, 1000)
	for len(out) < n {
		k, err := p.raw.Read(buf)
		if err != nil {
			t.Fatalf("reading crypto/tls's records: %v", err)
		}
		if out, _, err = decode(out, buf[:k]); err != nil {
			t.Fatalf("crypto/tls's record rejected: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return out
}

// message is n bytes that end in zeros, so that a record layer that
// takes them for padding shows.
func message(n int) []byte {
	b := make([]byte, n)
	for i := range b[:n-16] {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// framed is the stream image of m: tcpsim's 4-byte length prefix ‖ m.
func framed(m []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(m))), m...)
}

// TestStreamCodecsMatchCryptoTLS exchanges a three-record message each
// way between crypto/tls and kTLS-sw, user-space TLS and TCPLS. TCPLS
// uses RFC 8446's nonce (the custom nonce of the real protocol is why it
// cannot be offloaded, which the model keeps only as a cost), so
// crypto/tls reads its 8-byte stream header, stream ID ‖ length, as the
// first plaintext of each record.
func TestStreamCodecsMatchCryptoTLS(t *testing.T) {
	noHeader := func(int) []byte { return nil }
	tcplsHeader := func(n int) []byte { return binary.BigEndian.AppendUint32(make([]byte, 4), uint32(n)) }
	for _, c := range []struct {
		name     string
		newCodec func(cm *cost.Model, keys tlsrec.Keys) (tcpsim.Codec, error)
		recPlain int
		header   func(n int) []byte // per-record plaintext ahead of the stream bytes
	}{
		{"kTLS-sw", func(cm *cost.Model, k tlsrec.Keys) (tcpsim.Codec, error) { return ktls.New(cm, ktls.ModeKTLSSW, k) }, ktls.RecPlain, noHeader},
		{"TLS", func(cm *cost.Model, k tlsrec.Keys) (tcpsim.Codec, error) { return ktls.New(cm, ktls.ModeUserTLS, k) }, ktls.RecPlain, noHeader},
		{"TCPLS", func(cm *cost.Model, k tlsrec.Keys) (tcpsim.Codec, error) { return tcpls.New(cm, k) }, tcpls.RecPlain, tcplsHeader},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPeer(t)
			codec, err := c.newCodec(cost.Default(), p.keys)
			if err != nil {
				t.Fatal(err)
			}
			m := message(40000)
			stream := framed(m)
			// The plaintext of each record the codec cuts.
			var plains [][]byte
			for off := 0; off < len(stream); off += c.recPlain {
				n := min(c.recPlain, len(stream)-off)
				plains = append(plains, append(c.header(n), stream[off:off+n]...))
			}
			chunks, _ := codec.EncodeMessage(stream[:4], m)
			var records []byte
			for _, ch := range chunks {
				records = append(records, ch.Bytes...)
			}
			want := slices.Concat(plains...)
			if got := p.read(t, records, len(want)); !bytes.Equal(got, want) {
				t.Fatalf("crypto/tls read %d bytes that differ from the %d the codec sealed", len(got), len(want))
			}
			if got := p.write(t, plains, len(stream), codec.DecodeStreamTo); !bytes.Equal(got, stream) {
				t.Fatalf("the codec opened %d bytes that differ from the %d crypto/tls sealed", len(got), len(stream))
			}
		})
	}
}

// world is a two-host simulated testbed whose host 2 hands a copy of
// every DATA packet it receives to capture before dispatching it.
type world struct {
	eng  *sim.Engine
	cm   *cost.Model
	a, b *cpusim.Host
}

func newWorld(capture func(pkt *wire.Packet)) *world {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	w := &world{eng: eng, cm: cm, a: cpusim.NewHost(eng, cm, net, 1, 4, 12), b: cpusim.NewHost(eng, cm, net, 2, 4, 12)}
	net.Attach(2, func(pkt *wire.Packet) {
		if pkt.Overlay.Type == wire.TypeData && len(pkt.Payload) > 0 {
			capture(pkt)
		}
		w.b.NIC.OnRx(pkt)
	})
	return w
}

// TestKTLSHWMatchesCryptoTLS has crypto/tls open the records a kTLS-hw
// client's NIC sealed in a simulated world: the stack writes each
// record's header and inner plaintext, and the NIC's flow context
// seals it with its own sequence counter.
func TestKTLSHWMatchesCryptoTLS(t *testing.T) {
	p := newPeer(t)
	var stream []byte // the TCP byte stream, in order
	w := newWorld(func(pkt *wire.Packet) {
		if int(pkt.Overlay.TSOOffset) == len(stream) {
			stream = append(stream, pkt.Payload...)
		}
	})
	var delivered []byte
	tcpsim.Listen(w.b, 443, tcpsim.Config{}, func(uint32, uint16) tcpsim.Codec {
		c, err := ktls.New(w.cm, ktls.ModeKTLSSW, mirror(p.keys))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, nil, func(c *tcpsim.Conn) { c.OnMessage(func(m []byte) { delivered = append(delivered[:0], m...) }) })
	codec, err := ktls.New(w.cm, ktls.ModeKTLSHW, p.keys)
	if err != nil {
		t.Fatal(err)
	}
	cli := tcpsim.Dial(w.a, 0, tcpsim.Config{}, func(uint16) tcpsim.Codec { return codec }, 2, 443, nil)
	w.eng.RunUntil(sim.Millisecond)
	m := message(40000)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(m) })
	w.eng.RunUntil(w.eng.Now() + 10*sim.Millisecond)
	want := framed(m)
	if got := p.read(t, stream, len(want)); !bytes.Equal(got, want) {
		t.Fatal("crypto/tls read bytes that differ from the message the NIC sealed")
	}
	if !bytes.Equal(delivered, m) || w.a.NIC.Stats.SealedRecs != 3 {
		t.Fatalf("in the world: %d bytes delivered, %d records sealed by the NIC; want the message's %d, 3", len(delivered), w.a.NIC.Stats.SealedRecs, len(m))
	}
}

// TestSMTFirstMessageMatchesCryptoTLS has crypto/tls open the records
// of an SMT-sw and an SMT-hw session's first message. SMT numbers
// record i of message m as m ‖ i (§4.4), so message 0's records carry
// sequence numbers 0…k, the ones a TLS connection gives its first k+1
// records. The sessions pad each record's inner plaintext to a multiple
// of 64 bytes, and crypto/tls reads the records cut out of the DATA
// packets' segments, past each record's framing header.
func TestSMTFirstMessageMatchesCryptoTLS(t *testing.T) {
	for _, c := range []struct {
		name string
		hw   bool
	}{{"SMT-sw", false}, {"SMT-hw", true}} {
		t.Run(c.name, func(t *testing.T) {
			p := newPeer(t)
			// DATA packet payloads by segment offset, then packet index.
			segs := map[uint32]map[uint16][]byte{}
			w := newWorld(func(pkt *wire.Packet) {
				seg := segs[pkt.Overlay.TSOOffset]
				if seg == nil {
					seg = map[uint16][]byte{}
					segs[pkt.Overlay.TSOOffset] = seg
				}
				if _, dup := seg[pkt.IP.ID]; !dup {
					seg[pkt.IP.ID] = slices.Clone(pkt.Payload)
				}
			})
			const port, padTo = 9000, 64
			srv := core.NewSocket(w.b, core.Config{Transport: homa.Config{Port: port}, PadTo: padTo})
			cli := core.NewSocket(w.a, core.Config{HWOffload: c.hw, PadTo: padTo})
			if _, err := cli.RegisterSession(w.b.Addr, port, p.keys); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.RegisterSession(w.a.Addr, cli.Port(), mirror(p.keys)); err != nil {
				t.Fatal(err)
			}
			var delivered []byte
			srv.OnMessage(func(d homa.Delivery) { delivered = append(delivered[:0], d.Payload...) })
			m := message(100000) // 7 records in 2 segments
			w.eng.At(0, func() { cli.Send(w.b.Addr, port, m, 0) })
			w.eng.RunUntil(10 * sim.Millisecond) // a receiver that rejects the message lets Homa resend it forever
			var records []byte
			for _, off := range slices.Sorted(maps.Keys(segs)) {
				var seg []byte
				for _, id := range slices.Sorted(maps.Keys(segs[off])) {
					seg = append(seg, segs[off][id]...)
				}
				for len(seg) > 0 {
					n := wire.FramingHeaderLen + wire.RecordHeaderLen + int(binary.BigEndian.Uint16(seg[wire.FramingHeaderLen+3:]))
					if n > len(seg) {
						t.Fatalf("segment at %d: a %d-byte record past its %d bytes", off, n, len(seg))
					}
					records = append(records, seg[wire.FramingHeaderLen:n]...)
					seg = seg[n:]
				}
			}
			if got := p.read(t, records, len(m)); !bytes.Equal(got, m) {
				t.Fatal("crypto/tls read bytes that differ from the message SMT sealed")
			}
			if !bytes.Equal(delivered, m) || c.hw != (w.a.NIC.Stats.SealedRecs == 7) {
				t.Fatalf("in the world: %d bytes delivered, %d records sealed by the NIC; want the message's %d", len(delivered), w.a.NIC.Stats.SealedRecs, len(m))
			}
		})
	}
}
