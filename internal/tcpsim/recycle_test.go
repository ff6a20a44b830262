package tcpsim_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/ktls"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
	"smt/internal/wire"
)

// These tests drive the recycled stream chunks (queued until the
// cumulative ACK covers them, then returned to the codec that made
// them) and the recycled out-of-order buffers on all five stream
// codecs. Two client connections echo through one server endpoint.
//
// Loss can stall a connection for a reason that has nothing to do with
// recycling. A retransmission resends one whole chunk, and the NIC cuts
// it into packets from the chunk's first byte. When that chunk did not
// start its original TSO segment, no retransmitted packet starts at the
// receiver's next expected byte. The receiver drops a packet that
// straddles that byte as stale, so the hole is never filled, and after
// MaxRTOStrikes the connection ends in ErrTimeout. Record-sized chunks
// (16 KB) meet this on most losses. The runs below accept that ending
// and no other: a connection may time out only while the queued chunk
// holding its first unacknowledged byte cuts into packets that miss
// that byte. A client whose connection timed out stops there, and every
// check still applies to what it delivered and released before.

// streamCodec builds one of the five stream codecs for one connection
// end.
type streamCodec struct {
	name string
	make func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error)
}

func ktlsCodec(mode ktls.Mode) func(*cost.Model, ktls.Keys) (tcpsim.Codec, error) {
	return func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) { return ktls.New(cm, mode, keys) }
}

var streamCodecs = []streamCodec{
	{"TCP", func(*cost.Model, ktls.Keys) (tcpsim.Codec, error) { return &tcpsim.PlainCodec{}, nil }},
	{"kTLS-sw", ktlsCodec(ktls.ModeKTLSSW)},
	{"kTLS-hw", ktlsCodec(ktls.ModeKTLSHW)},
	{"TLS", ktlsCodec(ktls.ModeUserTLS)},
	{"TCPLS", func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) { return tcpls.New(cm, keys) }},
}

// TestStreamCodecAllocs pins the chunk pool: once a codec has had its
// chunks released, encoding a message of 64 B or 64 KB (several chunks)
// behind its length prefix and releasing every chunk allocates nothing.
func TestStreamCodecAllocs(t *testing.T) {
	keys, _ := ktls.PairKeys(3)
	prefix := []byte{0, 0, 0, 0}
	for _, sc := range streamCodecs {
		c, err := sc.make(cost.Default(), keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{64, 64 << 10} {
			data := bytes.Repeat([]byte{0x5a}, n)
			cycle := func() {
				chunks, _ := c.EncodeMessage(prefix, data)
				for _, ch := range chunks {
					c.Release(ch)
				}
			}
			cycle()
			if got := testing.AllocsPerRun(100, cycle); got != 0 {
				t.Errorf("%s: encoding and releasing %d B allocates %.1f objects/op, want 0", sc.name, n, got)
			}
		}
	}
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

const srvPort = 80

// checkedCodec wraps a connection end's codec and checks the chunk
// contract from the outside: no chunk is handed out while an earlier
// chunk with the same buffer is still queued, and each chunk is released
// exactly once.
type checkedCodec struct {
	tcpsim.Codec
	t       testing.TB
	name    string
	client  int            // the client whose connection this codec serves
	queued  map[*byte]bool // first byte of every chunk not yet released
	buffers map[*byte]bool // first byte of every chunk ever handed out
	chunks  int
}

func (c *checkedCodec) EncodeMessage(prefix, msg []byte) ([]tcpsim.Chunk, sim.Time) {
	chunks, cpu := c.Codec.EncodeMessage(prefix, msg)
	for _, ch := range chunks {
		p := &ch.Bytes[0]
		if c.queued[p] {
			c.t.Fatalf("%s: EncodeMessage handed out the buffer of a chunk that is still queued", c.name)
		}
		c.queued[p], c.buffers[p] = true, true
		c.chunks++
	}
	return chunks, cpu
}

func (c *checkedCodec) Release(ch tcpsim.Chunk) {
	p := &ch.Bytes[0]
	if !c.queued[p] {
		c.t.Fatalf("%s: released a chunk that is not queued (released twice?)", c.name)
	}
	delete(c.queued, p)
	c.Codec.Release(ch)
}

// echoRun is one run of echoes over a stream codec: every client keeps
// window requests outstanding until it has sent perClient of them, and
// the server echoes each request back. Message k (requests numbered in
// send order) is sizes[k%len(sizes)] bytes of content(·, k), and so is
// its echo. TCP is in order per connection, so each client's requests
// reach the server, and their echoes the client, in the order sent.
type echoRun struct {
	t         testing.TB
	eng       *sim.Engine
	net       *netsim.Network
	hosts     [2]*cpusim.Host
	sizes     []int
	perClient int
	clis      []*tcpsim.Conn
	srvs      []*tcpsim.Conn // accepted connection of each client
	byPort    map[uint16]int // client index by its local port
	codecs    []*checkedCodec
	reqs      [][]int // per client: k of each request, in send order
	gotReq    []int   // per client: requests the server has received
	gotResp   []int   // per client: echoes the client has received
	next      int     // k of the next request
	stalled   []bool  // per client: its connection ended in ErrTimeout
	// streams holds, per direction of each connection, every stream
	// byte seen in a DATA packet so far: a byte on the wire twice must
	// be the same byte.
	streams map[streamKey]*streamImage
}

type streamKey struct {
	src          uint32
	sport, dport uint16
}

type streamImage struct {
	b     []byte
	known []bool
}

func newEchoRun(t testing.TB, sc streamCodec, sizes []int, clients, perClient int) *echoRun {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	r := &echoRun{
		t: t, eng: eng, net: net,
		hosts:     [2]*cpusim.Host{cpusim.NewHost(eng, cm, net, 1, 4, 12), cpusim.NewHost(eng, cm, net, 2, 4, 12)},
		sizes:     sizes,
		perClient: perClient,
		srvs:      make([]*tcpsim.Conn, clients),
		byPort:    make(map[uint16]int),
		reqs:      make([][]int, clients),
		gotReq:    make([]int, clients),
		gotResp:   make([]int, clients),
		stalled:   make([]bool, clients),
		streams:   make(map[streamKey]*streamImage),
	}
	wrap := func(end string, i int, keys ktls.Keys) tcpsim.Codec {
		c, err := sc.make(cm, keys)
		if err != nil {
			t.Fatal(err)
		}
		cc := &checkedCodec{Codec: c, t: t, name: fmt.Sprintf("%s %s codec of client %d", sc.name, end, i), client: i,
			queued: make(map[*byte]bool), buffers: make(map[*byte]bool)}
		r.codecs = append(r.codecs, cc)
		return cc
	}
	tcpsim.Listen(r.hosts[1], srvPort, tcpsim.Config{},
		func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
			i, ok := r.byPort[peerPort]
			if !ok {
				t.Fatalf("server accepted a connection from unknown port %d", peerPort)
			}
			_, keys := ktls.ConnKeys(sc.name, peerAddr, peerPort)
			return wrap("server", i, keys)
		}, nil,
		func(c *tcpsim.Conn) {
			i := r.byPort[c.PeerPort()]
			r.srvs[i] = c
			c.OnError(r.onError("server", i, c))
			c.OnMessage(func(m []byte) {
				r.check("request", i, r.gotReq, m)
				if !r.stalled[i] {
					c.SendMessage(m)
				}
			})
		})
	for i := 0; i < clients; i++ {
		i := i
		c := tcpsim.Dial(r.hosts[0], i, tcpsim.Config{}, func(localPort uint16) tcpsim.Codec {
			keys, _ := ktls.ConnKeys(sc.name, 1, localPort)
			return wrap("client", i, keys)
		}, 2, srvPort, nil)
		r.byPort[c.LocalPort()] = i
		r.clis = append(r.clis, c)
		c.OnError(r.onError("client", i, c))
		c.OnMessage(func(m []byte) {
			r.check("echo", i, r.gotResp, m)
			r.issue(i)
		})
	}
	eng.RunUntil(sim.Millisecond)
	for i, c := range r.srvs {
		if c == nil {
			t.Fatalf("client %d did not connect", i)
		}
	}
	for _, h := range r.hosts {
		rx := h.NIC.OnRx
		h.NIC.OnRx = func(pkt *wire.Packet) {
			r.checkWire(pkt)
			rx(pkt)
		}
	}
	return r
}

// onError accepts the loss stall described at the top of this file and
// fails the test on any other connection error.
func (r *echoRun) onError(end string, i int, c *tcpsim.Conn) func(error) {
	return func(err error) {
		if !errors.Is(err, tcpsim.ErrTimeout) {
			r.t.Fatalf("%s connection of client %d: %v", end, i, err)
		}
		const per = wire.DefaultMTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
		una, chunk, ok := tcpsim.Unacked(c)
		if !ok {
			r.t.Fatalf("%s connection of client %d timed out with no queued chunk holding its first unacknowledged byte %d", end, i, una)
		}
		if (una-chunk)%per == 0 {
			r.t.Fatalf("%s connection of client %d timed out at stream offset %d, where a retransmission from %d starts a packet", end, i, una, chunk)
		}
		r.t.Logf("%s connection of client %d stalled after %d of %d echoes: a retransmission from %d cannot fill the hole at %d", end, i, r.gotResp[i], r.perClient, chunk, una)
		r.stalled[i] = true
	}
}

// check verifies that client i's next request (or echo) is the one
// delivered, byte for byte, and counts it.
func (r *echoRun) check(side string, i int, got []int, m []byte) {
	n := got[i]
	if n >= len(r.reqs[i]) {
		r.t.Fatalf("client %d: %s %d delivered, but only %d requests were sent", i, side, n, len(r.reqs[i]))
	}
	k := r.reqs[i][n]
	if want := content(r.sizes[k%len(r.sizes)], k); !bytes.Equal(m, want) {
		r.t.Fatalf("client %d: %s %d (message %d) is %d bytes that are not its own %d", i, side, n, k, len(m), len(want))
	}
	got[i]++
}

// issue sends client i's next request, if it has any left and its
// connection has not stalled.
func (r *echoRun) issue(i int) {
	if len(r.reqs[i]) == r.perClient || r.stalled[i] {
		return
	}
	k := r.next
	r.next++
	r.reqs[i] = append(r.reqs[i], k)
	r.clis[i].SendMessage(content(r.sizes[k%len(r.sizes)], k))
}

// checkWire fails if a DATA packet carries a stream byte that differs
// from one an earlier packet carried at the same stream offset, the sign
// of a chunk buffer reused while a copy of it was still in flight.
func (r *echoRun) checkWire(pkt *wire.Packet) {
	if pkt.IP.Protocol != wire.ProtoTCP || pkt.Overlay.Type != wire.TypeData {
		return
	}
	key := streamKey{pkt.IP.Src, pkt.Overlay.SrcPort, pkt.Overlay.DstPort}
	s := r.streams[key]
	if s == nil {
		s = &streamImage{}
		r.streams[key] = s
	}
	off := int(pkt.Overlay.TSOOffset)
	if end := off + len(pkt.Payload); end > len(s.b) {
		s.b = append(s.b, make([]byte, end-len(s.b))...)
		s.known = append(s.known, make([]bool, end-len(s.known))...)
	}
	for j, b := range pkt.Payload {
		if s.known[off+j] && s.b[off+j] != b {
			r.t.Fatalf("stream %+v: offset %d carried %#x, then %#x", key, off+j, s.b[off+j], b)
		}
		s.b[off+j], s.known[off+j] = b, true
	}
}

// settled reports whether every client has all its echoes back or has
// stalled.
func (r *echoRun) settled() bool {
	for i, n := range r.gotResp {
		if n < r.perClient && !r.stalled[i] {
			return false
		}
	}
	return true
}

// run issues window requests per client and runs until every client has
// all its echoes back or has stalled, failing if that takes more than
// ten virtual seconds. It then runs on until the last ACKs (or the
// retransmissions they answer) have landed, so every chunk of a client
// that did not stall must be back with its codec.
func (r *echoRun) run(window int) {
	r.eng.At(r.eng.Now(), func() {
		for j := 0; j < window; j++ {
			for i := range r.clis {
				r.issue(i)
			}
		}
	})
	for r.eng.Now() < 10*sim.Second && !r.settled() {
		r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	}
	if !r.settled() {
		r.t.Fatalf("echoes not back after ten virtual seconds (requests %v, echoes %v)", r.gotReq, r.gotResp)
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	for _, c := range r.codecs {
		if !r.stalled[c.client] && len(c.queued) != 0 {
			r.t.Fatalf("%s: %d chunks never released after every byte was acknowledged", c.name, len(c.queued))
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

// checkReuse asserts, for each client that did not stall, that both
// its codecs took chunks from their free lists again (fewer distinct
// chunk buffers than chunks, and at most limit when limit > 0), and that
// its connection took out-of-order buffers from its free lists too
// (fewer buffers than segments held out of order).
func (r *echoRun) checkReuse(limit int) {
	for _, c := range r.codecs {
		if r.stalled[c.client] {
			continue
		}
		if len(c.buffers) >= c.chunks || limit > 0 && len(c.buffers) > limit {
			r.t.Fatalf("%s: %d distinct chunk buffers for %d chunks", c.name, len(c.buffers), c.chunks)
		}
	}
	for i := range r.clis {
		if r.stalled[i] {
			continue
		}
		var held, bufs, segs int
		for _, c := range []*tcpsim.Conn{r.clis[i], r.srvs[i]} {
			h, f := tcpsim.OutOfOrderBufs(c)
			held, bufs, segs = held+h, bufs+h+f, segs+int(c.Stats.OutOfOrder)
		}
		if segs > 0 && bufs >= segs {
			r.t.Fatalf("client %d: %d out-of-order buffers (%d still held) for %d out-of-order segments", i, bufs, held, segs)
		}
	}
}

var mixedSizes = []int{150000, 1, 64000, 64, 20000, 1500, 4096, 70000, 1000}

// TestRecycledChunksUnderFaults runs mixed-size echoes (1 B to 150 KB)
// over all five stream codecs: lossless, with random loss and
// duplication, with a periodic drop mask, and with reordering, which
// holds segments out of order and triggers fast retransmissions without
// the loss stall. Every delivery must match its message byte for byte
// and arrive exactly once and in order, every stream byte must be the
// same each time it is on the wire, every chunk must go back to its
// codec exactly once, and the free lists must be reused.
func TestRecycledChunksUnderFaults(t *testing.T) {
	for _, sc := range streamCodecs {
		t.Run(sc.name+"/lossless", func(t *testing.T) {
			r := newEchoRun(t, sc, mixedSizes, 2, 40)
			r.run(4)
			// Four requests of up to ten records each are queued at once.
			r.checkReuse(40)
			// A burst of pure ACKs carrying one cumulative ACK counts as
			// duplicates, so lossless runs do fast-retransmit; they never
			// time out or hold a segment out of order.
			for i := range r.clis {
				for _, c := range []*tcpsim.Conn{r.clis[i], r.srvs[i]} {
					if r.stalled[i] || c.Stats.RTORetx != 0 || c.Stats.OutOfOrder != 0 {
						t.Fatalf("client %d: connection recovered from loss on a lossless run: %+v", i, c.Stats)
					}
				}
			}
		})
		t.Run(sc.name+"/loss+dup", func(t *testing.T) {
			r := newEchoRun(t, sc, mixedSizes, 2, 40)
			r.net.LossProb, r.net.DupProb = 0.02, 0.02
			r.run(4)
			r.checkReuse(0)
		})
		t.Run(sc.name+"/dropmask", func(t *testing.T) {
			r := newEchoRun(t, sc, mixedSizes, 2, 40)
			r.dropMask(bytes.Repeat([]byte{0x21, 0x00, 0x80, 0x04}, 64))
			r.run(4)
			r.checkReuse(0)
		})
		t.Run(sc.name+"/reorder", func(t *testing.T) {
			r := newEchoRun(t, sc, mixedSizes, 2, 40)
			r.net.ReorderProb, r.net.ReorderDelay = 0.05, 30*sim.Microsecond
			r.run(4)
			r.checkReuse(0)
			var segs, retx uint64
			for i := range r.clis {
				for _, c := range []*tcpsim.Conn{r.clis[i], r.srvs[i]} {
					if r.stalled[i] {
						t.Fatalf("client %d stalled without loss", i)
					}
					segs, retx = segs+c.Stats.OutOfOrder, retx+c.Stats.FastRetx
				}
			}
			if segs == 0 || retx == 0 {
				t.Fatalf("reordering held %d segments out of order and fast-retransmitted %d times", segs, retx)
			}
		})
	}
}

// FuzzStreamDropMask drops packets by a fuzzed per-packet mask while two
// clients echo fuzzed message sizes through one server, on every stream
// codec. Every message must still arrive exactly once, in order and
// intact, and every chunk must go back to its codec.
func FuzzStreamDropMask(f *testing.F) {
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
		// selector's high bits so chunk and record tails vary too.
		sizes := make([]int, len(sel))
		for i, b := range sel {
			sizes[i] = min(mixedSizes[int(b)%len(mixedSizes)]+int(b/16)*97, 150000)
		}
		for _, sc := range streamCodecs {
			r := newEchoRun(t, sc, sizes, 2, len(sizes))
			r.dropMask(mask)
			r.run(2)
		}
	})
}
