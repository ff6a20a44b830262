package tcpls

import (
	"bytes"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/ktls"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tcpsim"
)

func testWorld(seed int64) (*sim.Engine, *netsim.Network, *cpusim.Host, *cpusim.Host, *cost.Model) {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return eng, net, cpusim.NewHost(eng, cm, net, 1, 4, 12), cpusim.NewHost(eng, cm, net, 2, 4, 12), cm
}

func TestTCPLSExchange(t *testing.T) {
	eng, _, a, b, cm := testWorld(1)
	ck, sk := ktls.PairKeys(7)
	var srv *tcpsim.Conn
	tcpsim.Listen(b, 443, tcpsim.Config{}, func(uint32, uint16) tcpsim.Codec {
		c, err := New(cm, sk)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, nil, func(c *tcpsim.Conn) { srv = c })
	cc, err := New(cm, ck)
	if err != nil {
		t.Fatal(err)
	}
	cli := tcpsim.Dial(a, 0, tcpsim.Config{}, func(uint16) tcpsim.Codec { return cc }, 2, 443, nil)
	eng.RunUntil(1 * sim.Millisecond)
	if srv == nil {
		t.Fatal("not connected")
	}
	var got [][]byte
	srv.OnMessage(func(m []byte) { got = append(got, append([]byte(nil), m...)) })
	msgs := [][]byte{make([]byte, 64), make([]byte, 20000), make([]byte, 3)}
	for i := range msgs {
		for j := range msgs[i] {
			msgs[i][j] = byte(i*31 + j)
		}
	}
	eng.At(eng.Now(), func() {
		for _, m := range msgs {
			cli.SendMessage(m)
		}
	})
	eng.Run()
	if len(got) != len(msgs) {
		t.Fatalf("messages = %d", len(got))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	if cc.RecordsSealed == 0 {
		t.Fatal("no records sealed")
	}
}

func TestTCPLSSlowerThanKTLS(t *testing.T) {
	// §5.5: SMT (and even kTLS) should beat TCPLS; at minimum our model
	// must charge TCPLS more per record than kTLS-sw.
	cm := cost.Default()
	ck, _ := ktls.PairKeys(1)
	tc, err := New(cm, ck)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := ktls.New(cm, ktls.ModeKTLSSW, ck)
	if err != nil {
		t.Fatal(err)
	}
	prefix, data := make([]byte, 4), make([]byte, 4096)
	_, tCPU := tc.EncodeMessage(prefix, data)
	_, kCPU := kc.EncodeMessage(prefix, data)
	if tCPU <= kCPU {
		t.Fatalf("TCPLS encode %v must exceed kTLS %v", tCPU, kCPU)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(cost.Default(), ktls.Keys{}); err == nil {
		t.Fatal("empty keys accepted")
	}
}
