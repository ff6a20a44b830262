package homa_test

import (
	"bytes"
	"testing"

	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// These tests drive the pooled per-message state (outMsg recycled at
// ACK, inMsg with its segments and bitmaps recycled after delivery) on
// plain Homa and on SMT-sw, whose codec encrypts and replay-protects on
// top of the same transport. Two client sockets share one server socket,
// so the server's recycled messages move between peers.

// msgSock is the socket surface both stacks share.
type msgSock interface {
	Send(dst uint32, port uint16, payload []byte, thread int) uint64
	OnMessage(func(homa.Delivery))
	Port() uint16
}

// contentByte is byte i of message k: it depends on k at every position,
// so two messages of one size differ in every byte.
func contentByte(k, i int) byte { return byte(k) + byte(i*31) }

// content is message k's n-byte payload.
func content(n, k int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = contentByte(k, i)
	}
	return b
}

const srvPort = 100

// echoRun is one run of echoes: every client keeps window requests
// outstanding until it has sent perClient of them, and the server
// echoes each request back. Message k (requests numbered in send order)
// is sizes[k%len(sizes)] bytes of content(·, k), and so is its echo.
type echoRun struct {
	t     testing.TB
	eng   *sim.Engine
	net   *netsim.Network
	hosts [2]*cpusim.Host
	srv   msgSock
	clis  []msgSock
	// transports are the Homa sockets under srv and clis, server first.
	transports []*homa.Socket
	byPort     map[uint16]int // client index by port
	sizes      []int
	perClient  int
	sent       []int            // requests issued per client
	reqOf      []map[uint64]int // per client: request message ID -> k
	respOf     []map[uint64]int // per client: response message ID -> k
	gotReq     map[int]bool
	gotResp    map[int]bool
	next       int // k of the next request
	// states maps, per transport, each sent message to the state the
	// socket kept for it; resent holds the states of messages seen
	// retransmitted on the wire, which must never be handed out again.
	states []map[sentKey]any
	resent map[any]bool
}

// sentKey names a sent message: IDs count per destination port.
type sentKey struct {
	port uint16
	id   uint64
}

func newEchoRun(t testing.TB, smt bool, sizes []int, clients, perClient int) *echoRun {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	r := &echoRun{
		t: t, eng: eng, net: net,
		hosts:     [2]*cpusim.Host{cpusim.NewHost(eng, cm, net, 1, 4, 12), cpusim.NewHost(eng, cm, net, 2, 4, 12)},
		byPort:    make(map[uint16]int),
		sizes:     sizes,
		perClient: perClient,
		sent:      make([]int, clients),
		gotReq:    make(map[int]bool),
		gotResp:   make(map[int]bool),
		resent:    make(map[any]bool),
	}
	if smt {
		srv := core.NewSocket(r.hosts[1], core.Config{Transport: homa.Config{Port: srvPort}})
		r.srv, r.transports = srv, append(r.transports, srv.Socket)
		for c := 0; c < clients; c++ {
			cli := core.NewSocket(r.hosts[0], core.Config{})
			if err := core.PairSessions(cli, cli.Port(), srv, srvPort, byte(c+1)); err != nil {
				t.Fatal(err)
			}
			r.clis, r.transports = append(r.clis, cli), append(r.transports, cli.Socket)
		}
	} else {
		srv := homa.NewSocket(r.hosts[1], homa.Config{Port: srvPort}, nil)
		r.srv, r.transports = srv, append(r.transports, srv)
		for c := 0; c < clients; c++ {
			cli := homa.NewSocket(r.hosts[0], homa.Config{}, nil)
			r.clis, r.transports = append(r.clis, cli), append(r.transports, cli)
		}
	}
	for range r.transports {
		r.states = append(r.states, make(map[sentKey]any))
	}
	for c, cli := range r.clis {
		r.byPort[cli.Port()] = c
		r.reqOf = append(r.reqOf, make(map[uint64]int))
		r.respOf = append(r.respOf, make(map[uint64]int))
		c := c
		cli.OnMessage(func(d homa.Delivery) {
			k, ok := r.respOf[c][d.MsgID]
			if !ok || d.Src != 2 || d.SrcPort != srvPort {
				t.Fatalf("client %d: response %d from %d:%d matches no request", c, d.MsgID, d.Src, d.SrcPort)
			}
			r.check("response", k, d.Payload, r.gotResp)
			r.issue(c)
		})
	}
	r.srv.OnMessage(func(d homa.Delivery) {
		c, ok := r.byPort[d.SrcPort]
		k, ok2 := r.reqOf[c][d.MsgID]
		if !ok || !ok2 || d.Src != 1 {
			t.Fatalf("server: request %d from %d:%d matches no client", d.MsgID, d.Src, d.SrcPort)
		}
		r.check("request", k, d.Payload, r.gotReq)
		id := r.srv.Send(d.Src, d.SrcPort, d.Payload, d.AppThread)
		r.respOf[c][id] = k
		r.track(0, d.Src, d.SrcPort, id)
	})
	net.SetTap(wireCheck{r, !smt})
	return r
}

// check verifies message k's payload byte for byte and that it arrives
// only once.
func (r *echoRun) check(side string, k int, got []byte, seen map[int]bool) {
	if seen[k] {
		r.t.Fatalf("%s %d delivered twice", side, k)
	}
	seen[k] = true
	if want := content(r.sizes[k%len(r.sizes)], k); !bytes.Equal(got, want) {
		r.t.Fatalf("%s %d: %d bytes delivered, want %d bytes of its own content", side, k, len(got), len(want))
	}
}

// issue sends client c's next request, if it has any left.
func (r *echoRun) issue(c int) {
	if r.sent[c] == r.perClient {
		return
	}
	r.sent[c]++
	k := r.next
	r.next++
	id := r.clis[c].Send(2, srvPort, content(r.sizes[k%len(r.sizes)], k), k%12)
	r.reqOf[c][id] = k
	r.track(1+c, 2, srvPort, id)
}

// track records the state transport i keeps for its new message id to
// (dst, port), failing if that state belonged to a retransmitted message.
func (r *echoRun) track(i int, dst uint32, port uint16, id uint64) {
	st := homa.SentState(r.transports[i], dst, port, id)
	if st == nil || r.resent[st] {
		r.t.Fatalf("socket %d: message %d took the state of a message with a resubmitted segment", i, id)
	}
	r.states[i][sentKey{port, id}] = st
}

// wireCheck is a tap that marks the state of every message whose
// segment is retransmitted and, on plain Homa, checks that each DATA
// packet is delivered carrying its own message's bytes at its offset.
type wireCheck struct {
	r     *echoRun
	plain bool
}

// sender returns the transport index and message number of a DATA
// packet's message.
func (w wireCheck) sender(pkt *wire.Packet) (i, k int, ok bool) {
	r, o := w.r, pkt.Overlay
	if pkt.IP.Src == 2 {
		c := r.byPort[o.DstPort]
		k, ok = r.respOf[c][o.MsgID]
		return 0, k, ok
	}
	c := r.byPort[o.SrcPort]
	k, ok = r.reqOf[c][o.MsgID]
	return 1 + c, k, ok
}

func (w wireCheck) PacketSent(pkt *wire.Packet) {
	if pkt.Overlay.Type != wire.TypeData || pkt.Overlay.Flags&wire.FlagRetransmit == 0 {
		return
	}
	if i, _, ok := w.sender(pkt); ok {
		w.r.resent[w.r.states[i][sentKey{pkt.Overlay.DstPort, pkt.Overlay.MsgID}]] = true
	}
}

func (wireCheck) PacketDropped(*wire.Packet, netsim.DropReason) {}

func (w wireCheck) PacketDelivered(pkt *wire.Packet, dup bool) {
	o := pkt.Overlay
	if !w.plain || o.Type != wire.TypeData {
		return
	}
	_, k, ok := w.sender(pkt)
	idx := int(pkt.IP.ID)
	if o.Flags&wire.FlagRetransmit != 0 {
		idx = int(o.ResendPktOff)
	}
	off := int(o.TSOOffset) + idx*(wire.DefaultMTU-wire.IPv4HeaderLen-wire.OverlayHeaderLen)
	ok = ok && off+len(pkt.Payload) <= w.r.sizes[k%len(w.r.sizes)]
	for j := 0; ok && j < len(pkt.Payload); j++ {
		ok = pkt.Payload[j] == contentByte(k, off+j)
	}
	if !ok {
		w.r.t.Fatalf("packet of message %d from %d:%d at offset %d does not carry that message's bytes", o.MsgID, pkt.IP.Src, o.SrcPort, off)
	}
}

// run issues window requests per client and runs until every echo has
// come back, failing if that takes more than ten virtual seconds. It
// then runs on until the last ACKs (or their re-pushes) have landed.
// Drops and duplicates never corrupt a segment, so no socket may have
// seen one fail to decode.
func (r *echoRun) run(window int) {
	r.eng.At(0, func() {
		for i := 0; i < window; i++ {
			for c := range r.clis {
				r.issue(c)
			}
		}
	})
	want := len(r.clis) * r.perClient
	for r.eng.Now() < 10*sim.Second && len(r.gotResp) < want {
		r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	}
	if len(r.gotReq) != want || len(r.gotResp) != want {
		r.t.Fatalf("%d of %d requests and %d responses delivered", len(r.gotReq), want, len(r.gotResp))
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	for i, s := range r.transports {
		if s.Stats.CorruptSegs != 0 {
			r.t.Fatalf("socket %d: %d corrupted segments", i, s.Stats.CorruptSegs)
		}
	}
}

// dropMask drops the i-th packet either host receives when bit i of mask
// is set; packets past the mask all arrive.
func (r *echoRun) dropMask(mask []byte) {
	seen := 0
	for _, h := range r.hosts {
		rx := h.NIC.OnRx
		h.NIC.OnRx = func(pkt *wire.Packet) {
			i := seen
			seen++
			if i < 8*len(mask) && mask[i/8]&(1<<(i%8)) != 0 {
				pkt.Release()
				return
			}
			rx(pkt)
		}
	}
}

// checkReuse asserts that each socket took its message state from the
// free lists again: fewer distinct sent-message states than messages
// sent, and fewer received-message states (all back on the free list
// once everything is delivered) than messages received. With limit > 0,
// at most limit of each may exist, so none was left to the GC.
func (r *echoRun) checkReuse(limit int) {
	for i, s := range r.transports {
		distinct := make(map[any]bool)
		for _, st := range r.states[i] {
			distinct[st] = true
		}
		sent, recv := int(s.Stats.MsgsSent), int(s.Stats.MsgsDelivered)
		out, in := len(distinct), homa.ReceivedFree(s)
		if out >= sent || in == 0 || in >= recv || limit > 0 && (out > limit || in > limit) {
			r.t.Fatalf("socket %d: %d sent-message states for %d messages, %d received-message states for %d", i, out, sent, in, recv)
		}
	}
}

var mixedSizes = []int{150000, 1, 64000, 64, 20000, 1500, 4096, 70000, 1000}

// TestRecycledStateUnderFaults runs mixed-size echoes (1 B to 150 KB)
// over plain Homa and SMT-sw, first lossless, where nothing may be
// retransmitted, then with random loss and duplication and with a
// periodic drop mask. Every delivery must match its message byte for
// byte and arrive exactly once, a retransmitted message's state must
// never be reused, and the message free lists must be.
func TestRecycledStateUnderFaults(t *testing.T) {
	for _, smt := range []bool{false, true} {
		name := map[bool]string{false: "Homa", true: "SMT-sw"}[smt]
		t.Run(name+"/lossless", func(t *testing.T) {
			r := newEchoRun(t, smt, mixedSizes, 2, 40)
			r.run(4)
			r.checkReuse(2 * 4)
			for i, s := range r.transports {
				if s.Stats.Retransmits != 0 || s.Stats.ResendsSent != 0 || s.Stats.SpuriousPkts != 0 {
					t.Fatalf("socket %d recovered from faults on a lossless run: %+v", i, s.Stats)
				}
			}
		})
		t.Run(name+"/loss+dup", func(t *testing.T) {
			r := newEchoRun(t, smt, mixedSizes, 2, 40)
			r.net.LossProb, r.net.DupProb = 0.02, 0.02
			r.run(4)
			r.checkReuse(0)
		})
		t.Run(name+"/dropmask", func(t *testing.T) {
			r := newEchoRun(t, smt, mixedSizes, 2, 40)
			r.dropMask(bytes.Repeat([]byte{0x21, 0x00, 0x80, 0x04}, 64))
			r.run(4)
			r.checkReuse(0)
		})
	}
}

// FuzzEchoDropMask drops packets by a fuzzed per-packet mask while two
// clients echo fuzzed message sizes through one server, on plain Homa
// and SMT-sw. Every message must still arrive exactly once and intact.
func FuzzEchoDropMask(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0x00, 0x0f}, []byte{0, 7, 0, 7})
	f.Add([]byte{0x55, 0xaa, 0x11, 0x88, 0x01}, []byte{3, 0, 5, 1, 2, 6})
	f.Fuzz(func(t *testing.T, mask, sel []byte) {
		if len(sel) == 0 {
			return
		}
		if len(mask) > 64 {
			mask = mask[:64]
		}
		if len(sel) > 8 {
			sel = sel[:8]
		}
		// Sizes from 1 B to 150 KB: a base size, stretched by the
		// selector's high bits so segment tails vary too.
		sizes := make([]int, len(sel))
		for i, b := range sel {
			sizes[i] = min(mixedSizes[int(b)%len(mixedSizes)]+int(b/16)*97, 150000)
		}
		for _, smt := range []bool{false, true} {
			r := newEchoRun(t, smt, sizes, 2, len(sizes))
			r.dropMask(mask)
			r.run(2)
		}
	})
}
