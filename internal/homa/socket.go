package homa

import (
	"fmt"

	"smt/internal/cpusim"
	"smt/internal/idmap"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// The grant and resend machinery runs at fixed values throughout the
// evaluation.
const (
	// unschedBytes is sent without waiting for grants (first-RTT data).
	unschedBytes = 60000
	// rttBytes is the grant window the receiver keeps open per message.
	rttBytes = 60000
	// resendTimeout is the receiver's missing-data timer.
	resendTimeout = 2 * sim.Millisecond
	// senderTimeout re-pushes the first segment if a message makes no
	// progress (covers the all-unscheduled-packets-lost case).
	senderTimeout = 5 * sim.Millisecond
)

// Config tunes a Socket. Zero fields take defaults.
type Config struct {
	// Port is the local port; 0 allocates an ephemeral one.
	Port uint16
	// MTU is the wire MTU (DefaultMTU or JumboMTU in the evaluation);
	// 0 means wire.DefaultMTU.
	MTU int
	// NoTSO makes the stack cut packets in software (Fig. 11 ablation):
	// each MTU packet is submitted individually at per-packet CPU cost.
	NoTSO bool
	// AppThreads lists the application threads eligible to receive
	// message deliveries; nil means any app core (least loaded).
	AppThreads []int
	// Proto is the IP protocol number (ProtoHoma or ProtoSMT); 0 means
	// wire.ProtoHoma.
	Proto uint8
}

// Delivery is a fully reassembled (and, under SMT, decrypted and
// verified) incoming message handed to the application.
type Delivery struct {
	Src     uint32
	SrcPort uint16
	MsgID   uint64
	// Payload is borrowed: it stays valid until the OnMessage callback
	// returns, after which the socket reuses the buffer for a later
	// delivery. A consumer that keeps the bytes copies them.
	Payload   []byte
	AppThread int      // thread the delivery ran on
	Recv      sim.Time // virtual time of delivery to the app
}

// Stats counts socket-level events.
type Stats struct {
	MsgsSent      uint64
	MsgsDelivered uint64
	BytesSent     uint64
	BytesRecv     uint64
	GrantsSent    uint64
	ResendsSent   uint64
	Retransmits   uint64
	Replays       uint64
	CorruptSegs   uint64
	SpuriousPkts  uint64
}

// peerKey packs a peer's (addr, port) into one word, addr<<16 | port,
// the key of the socket's peer table.
type peerKey uint64

func makePeerKey(addr uint32, port uint16) peerKey {
	return peerKey(addr)<<16 | peerKey(port)
}

func (k peerKey) addr() uint32 { return uint32(k >> 16) }
func (k peerKey) port() uint16 { return uint16(k) }

// Socket is one endpoint of the message transport bound to (proto, port)
// on a host. It can exchange messages with many peers; per-peer state
// (codec, message ID spaces) is kept in peer structs, matching an SMT
// session per flow 5-tuple.
type Socket struct {
	host *cpusim.Host
	cfg  Config
	port uint16
	// codec is every new peer's codec until SetCodec replaces it.
	codec Codec

	peers       idmap.Map[*peer] // by peerKey
	onMessage   func(Delivery)
	onHandshake func(src uint32, srcPort uint16, payload []byte)
	closed      bool
	// activeIn counts registered-but-undelivered incoming messages,
	// driving the SRPT bookkeeping cost.
	activeIn int
	// Free lists of the pooled per-message and per-segment state.
	// outFree holds sent messages, each with its send copy (returned at
	// ACK); inFree received messages with their segment bitmaps
	// (returned once delivered); submitFree, rxFree, ctrlFree and
	// deliverFree the pooled callbacks of both paths (each deliverEvent
	// keeps its delivery buffer); segBufFree segment reassembly buffers
	// (returned when a message decodes). Single goroutine, no sync.
	outFree     []*outMsg
	inFree      []*inMsg
	submitFree  []*submitEvent
	rxFree      []*rxEvent
	ctrlFree    []*ctrlEvent
	deliverFree []*deliverEvent
	segBufFree  [][]byte
	// groLastMsg/groLastRx track homa_gro aggregation state.
	groLastMsg msgKey
	groLastRx  sim.Time

	Stats Stats
}

type msgKey struct {
	pk peerKey
	id uint64
}

// peer is the state a socket keeps per peer (addr, port). Its tables are
// keyed by message ID.
type peer struct {
	key       peerKey
	codec     Codec
	nextMsgID uint64
	out       idmap.Map[*outMsg]
	in        idmap.Map[*inMsg]
	// core is each incoming message's softirq core affinity, set by its
	// first DATA packet and dropped at delivery. A message rejected at
	// admission, and a late duplicate of a delivered one, leave their
	// entries behind for the life of the socket.
	core idmap.Map[int]
	// done remembers recently delivered incoming message IDs so late
	// duplicates of completed messages are discarded; SMT's MsgIDGuard
	// subsumes this, but vanilla Homa needs its own bounded memory.
	// doneRing holds the same IDs in completion order: it grows to
	// doneCap, then turns into a ring whose oldest entry is at doneHead.
	done     idmap.Map[struct{}]
	doneRing []uint64
	doneHead int
}

// doneCap bounds the recently-completed memory per peer.
const doneCap = 4096

func (p *peer) markDone(id uint64) {
	if len(p.doneRing) < doneCap {
		p.doneRing = append(p.doneRing, id)
	} else {
		p.done.Delete(p.doneRing[p.doneHead])
		p.doneRing[p.doneHead] = id
		p.doneHead = (p.doneHead + 1) % doneCap
	}
	p.done.Put(id, struct{}{})
}

// NewSocket binds a socket on host. codec is every peer's codec until
// SetCodec installs its session; nil is one PlainCodec shared by every
// peer, vanilla Homa.
func NewSocket(host *cpusim.Host, cfg Config, codec Codec) *Socket {
	if cfg.MTU == 0 {
		cfg.MTU = wire.DefaultMTU
	}
	if cfg.Proto == 0 {
		cfg.Proto = wire.ProtoHoma
	}
	if codec == nil {
		codec = &PlainCodec{}
	}
	s := &Socket{host: host, cfg: cfg, codec: codec}
	if cfg.Port == 0 {
		cfg.Port = host.AllocPort()
	}
	s.port = cfg.Port
	s.cfg = cfg
	host.Bind(cfg.Proto, s.port, (*handler)(s))
	return s
}

// Port reports the bound local port.
func (s *Socket) Port() uint16 { return s.port }

// Host returns the owning host.
func (s *Socket) Host() *cpusim.Host { return s.host }

// OnMessage registers the delivery callback (one per socket). The
// Delivery's Payload is borrowed until fn returns.
func (s *Socket) OnMessage(fn func(Delivery)) { s.onMessage = fn }

// OnHandshake registers the receiver for TypeHandshake packets; the
// key-exchange layer (§4.5) uses it to run before session keys exist.
// fn sees each packet's source and payload bytes, valid only for the
// duration of the call: the packet returns to the pool when fn returns.
func (s *Socket) OnHandshake(fn func(src uint32, srcPort uint16, payload []byte)) { s.onHandshake = fn }

// SendHandshake transmits one opaque handshake flight to a peer as
// TypeHandshake packets on the NIC queue of softirq core `core`, cut at
// the MTU in software. Flights bypass the message machinery (no grants, no
// retransmission); the packets copy their bytes out of flight.
func (s *Socket) SendHandshake(dstAddr uint32, dstPort uint16, flight []byte, core int) {
	per := s.cfg.MTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	for off := 0; off < len(flight); off += per {
		pkt := s.host.NIC.AcquirePacket()
		pkt.IP = wire.IPv4Header{TTL: 64, Protocol: s.cfg.Proto, Src: s.host.Addr, Dst: dstAddr}
		pkt.Overlay = wire.OverlayHeader{
			SrcPort: s.port, DstPort: dstPort,
			Type: wire.TypeHandshake, MsgLen: uint32(len(flight)),
		}
		pkt.SetPayload(flight[off:min(off+per, len(flight))])
		s.host.NIC.SendSegment(s.host.SoftirqQueue(core), &nicsim.TxSegment{Pkt: pkt, MTU: s.cfg.MTU, NoTSO: true})
	}
}

// pop takes the most recently freed entry of the free list *free, or
// returns the zero value when the list is empty.
func pop[T any](free *[]T) (x T) {
	if l := len(*free); l > 0 {
		x = (*free)[l-1]
		clear((*free)[l-1:])
		*free = (*free)[:l-1]
	}
	return x
}

// resize returns b with length n, reusing its capacity. The contents are
// unspecified: callers overwrite or clear every entry.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	//smt:coldpath -- capacity growth; recycled state reuses its buffers
	return make([]T, n)
}

// Close unbinds the socket.
func (s *Socket) Close() {
	if !s.closed {
		s.host.Unbind(s.cfg.Proto, s.port)
		s.closed = true
	}
}

func (s *Socket) peerFor(pk peerKey) *peer {
	p, ok := s.peers.Get(uint64(pk))
	if !ok {
		p = s.newPeer(pk)
		s.peers.Put(uint64(pk), p)
	}
	return p
}

// newPeer builds the per-peer state on first contact; steady state hits
// the table lookup in peerFor instead.
//
//smt:coldpath peer setup runs once per (addr, port) pair
func (s *Socket) newPeer(pk peerKey) *peer {
	return &peer{key: pk, codec: s.codec}
}

// Peer returns the codec associated with a peer, creating the peer state
// if needed (used by SMT to register session keys ahead of traffic).
func (s *Socket) Peer(addr uint32, port uint16) Codec {
	return s.peerFor(makePeerKey(addr, port)).codec
}

// SetCodec installs (or replaces) the codec for a peer — the transport
// half of SMT's "register the negotiated keys on the socket" step
// (§4.2, the setsockopt analog). Replacing the codec resets the secure
// session; in-flight messages of the old session will fail decode and be
// recovered or dropped, exactly as a rekey behaves.
func (s *Socket) SetCodec(addr uint32, port uint16, c Codec) {
	s.peerFor(makePeerKey(addr, port)).codec = c
}

// ---- Send path ----

// outMsg is one sent message, pooled per socket. It is recycled at ACK
// together with its payload copy, unless a segment was resubmitted (see
// resent). It is also the completion of Send's syscall charge.
type outMsg struct {
	s       *Socket
	p       *peer
	id      uint64
	payload []byte
	segSent []bool
	granted int
	acked   bool
	// resent marks a message with a resubmitted segment. A resubmission
	// may still be queued on a core when the ACK lands, its submit event
	// holding the message and, under PlainCodec, a segment aliasing
	// payload, so such a message and its payload are left to the GC
	// instead of returning to outFree.
	resent    bool
	appThread int
	timer     sim.Timer
	timerFn   func() // prebuilt sender-timeout callback, kept across reuses
}

// nSegs returns the number of TSO segments for a message of n plaintext
// bytes under span.
func nSegs(n, span int) int { return (n + span - 1) / span }

// Send transmits payload to dst as one message. It charges the syscall
// and user-to-kernel copy on appThread's core, then submits unscheduled
// segments from that context; granted segments follow from softirq
// context as GRANTs arrive (§3.2's multi-context transmission). The
// returned message ID identifies the message in this socket→peer
// direction. payload is copied before Send returns and never written,
// so a borrowed Delivery.Payload can be sent back as is and a caller may
// reuse its buffer at once.
func (s *Socket) Send(dstAddr uint32, dstPort uint16, payload []byte, appThread int) uint64 {
	if len(payload) == 0 {
		//smt:allow panic -- Send-API misuse by the harness; an empty message has no wire encoding
		panic("homa: empty message")
	}
	if s.closed {
		//smt:allow panic -- Send-API misuse by the harness; a closed socket's packets would leak into the fabric
		panic("homa: send on closed socket")
	}
	p := s.peerFor(makePeerKey(dstAddr, dstPort))
	id := p.nextMsgID
	p.nextMsgID++

	m := pop(&s.outFree)
	if m == nil {
		//smt:coldpath -- outMsg free-list refill; steady state reuses recycled messages
		m = &outMsg{s: s}
		//smt:coldpath -- one timer callback per pooled message, bound at refill
		m.timerFn = m.senderTimeout
	}
	m.p, m.id, m.granted, m.appThread = p, id, unschedBytes, appThread
	m.acked, m.resent = false, false
	m.payload = resize(m.payload, len(payload))
	copy(m.payload, payload)
	m.segSent = resize(m.segSent, nSegs(len(payload), p.codec.SegSpan()))
	clear(m.segSent)
	p.out.Put(id, m)
	s.Stats.MsgsSent++
	s.Stats.BytesSent += uint64(len(payload))

	// Syscall + copy in the sending thread's context, then unscheduled
	// segments, each charging its codec build cost on the same core.
	cm := s.host.CM
	s.host.App[appThread%len(s.host.App)].AcquireAction(cm.Syscall+cm.Copy(len(payload)), m)
	return id
}

// Run implements sim.Action: Send's syscall charge has completed, so the
// sending thread submits the unscheduled segments and arms the sender
// timer.
func (m *outMsg) Run() {
	s := m.s
	s.pump(m, s.host.AppQueue(m.appThread), m.appThread, true)
	s.armSenderTimer(m)
}

// pump submits all unsent segments below the grant limit. onApp indicates
// app-thread (syscall) context; otherwise core identifies the softirq
// core (pacer context).
func (s *Socket) pump(m *outMsg, queue int, ctxCore int, onApp bool) {
	span := m.p.codec.SegSpan()
	for seg := 0; seg < len(m.segSent); seg++ {
		start := seg * span
		if m.segSent[seg] || start >= m.granted {
			continue
		}
		m.segSent[seg] = true
		n := span
		if start+n > len(m.payload) {
			n = len(m.payload) - start
		}
		s.submitSegment(m, start, n, queue, ctxCore, onApp, false)
	}
}

// submitEvent is the pooled completion of a segment's build charge,
// which hands the encoded segment to the NIC.
type submitEvent struct {
	s          *Socket
	m          *outMsg
	enc        Segment
	off, queue int
	retransmit bool
}

// Run implements sim.Action.
func (e *submitEvent) Run() {
	s := e.s
	s.toNIC(e.m, &e.enc, e.off, e.queue, e.retransmit)
	e.m, e.enc = nil, Segment{}
	s.submitFree = append(s.submitFree, e)
}

// submitSegment encodes one segment and pushes it to the NIC, charging
// the build cost in the submitting context.
func (s *Socket) submitSegment(m *outMsg, off, n, queue, ctxCore int, onApp, retransmit bool) {
	m.resent = m.resent || retransmit
	enc, cpu := m.p.codec.Encode(m.id, m.payload, off, n, queue, retransmit)
	cm := s.host.CM
	if s.cfg.NoTSO && !retransmit {
		cpu += cm.HomaTxPacketNoTSO * sim.Time(nPkts(len(enc.Payload), s.cfg.MTU))
	} else {
		cpu += cm.HomaTxSegment
	}
	e := pop(&s.submitFree)
	if e == nil {
		//smt:coldpath -- submitEvent free-list refill; steady state reuses pooled events
		e = &submitEvent{s: s}
	}
	e.m, e.enc, e.off, e.queue, e.retransmit = m, enc, off, queue, retransmit
	if onApp {
		s.host.App[ctxCore%len(s.host.App)].AcquireAction(cpu, e)
	} else {
		s.host.Softirq[ctxCore%len(s.host.Softirq)].AcquireAction(cm.HomaPacer+cpu, e)
	}
}

// nPkts returns packets per segment payload of wireLen bytes.
func nPkts(wireLen, mtu int) int {
	per := mtu - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	n := (wireLen + per - 1) / per
	if n == 0 {
		n = 1
	}
	return n
}

func (s *Socket) toNIC(m *outMsg, enc *Segment, off, queue int, retransmit bool) {
	p := m.p
	hdr := wire.OverlayHeader{
		SrcPort: s.port, DstPort: p.key.port(),
		Type:      wire.TypeData,
		MsgID:     m.id,
		MsgLen:    uint32(len(m.payload)),
		TSOOffset: uint32(off),
	}
	ip := wire.IPv4Header{TTL: 64, Protocol: s.cfg.Proto, Src: s.host.Addr, Dst: p.key.addr()}

	if retransmit {
		s.Stats.Retransmits++
		if enc.Records != nil {
			// Hardware-offloaded segments are re-encrypted wholesale: the
			// NIC needs complete records, so the stack resends the whole
			// segment through TSO with a resync descriptor (the
			// kTLS-style retransmit path, §3.2). Duplicate packets are
			// discarded by the receiver.
			pkt := s.host.NIC.AcquirePacket()
			pkt.IP, pkt.Overlay = ip, hdr
			pkt.Payload = enc.Payload // borrowed until emit; Release recycles
			s.host.NIC.SendSegment(queue, &nicsim.TxSegment{
				Pkt: pkt, MTU: s.cfg.MTU,
				Records: enc.Records, Keys: enc.Keys, CtxID: enc.CtxID, Resync: true,
				Release: enc.Release,
			})
			return
		}
		// Software path: packets are cut in software and carry their
		// original intra-segment offset in the Resend-packet-offset field
		// of the overlay header (§4.3), since a lone packet's IPID no
		// longer encodes its position. The cuts copy, so the codec
		// segment is recycled as soon as the loop ends.
		per := s.cfg.MTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
		for i, pos := 0, 0; pos < len(enc.Payload); i, pos = i+1, pos+per {
			end := pos + per
			if end > len(enc.Payload) {
				end = len(enc.Payload)
			}
			pkt := s.host.NIC.AcquirePacket()
			pkt.IP, pkt.Overlay = ip, hdr
			pkt.Overlay.Flags |= wire.FlagRetransmit
			pkt.Overlay.ResendPktOff = uint16(i)
			pkt.SetPayload(enc.Payload[pos:end])
			s.host.NIC.SendSegment(queue, &nicsim.TxSegment{Pkt: pkt, MTU: s.cfg.MTU, NoTSO: true})
		}
		if enc.Release != nil {
			enc.Release()
		}
		return
	}

	pkt := s.host.NIC.AcquirePacket()
	pkt.IP, pkt.Overlay = ip, hdr
	pkt.Payload = enc.Payload // borrowed until emit; Release recycles
	s.host.NIC.SendSegment(queue, &nicsim.TxSegment{
		Pkt: pkt, MTU: s.cfg.MTU, NoTSO: false,
		Records: enc.Records, Keys: enc.Keys, CtxID: enc.CtxID, Resync: enc.Resync,
		Release: enc.Release,
	})
}

func (s *Socket) armSenderTimer(m *outMsg) {
	s.host.Eng.ResetAfter(&m.timer, senderTimeout, m.timerFn)
}

// senderTimeout is the sender timer's callback: with no ACK yet, re-push
// the first segment to re-trigger the receiver.
func (m *outMsg) senderTimeout() {
	if m.acked {
		return
	}
	s := m.s
	n := m.p.codec.SegSpan()
	if n > len(m.payload) {
		n = len(m.payload)
	}
	s.submitSegment(m, 0, n, s.host.SoftirqQueue(0), 0, false, true)
	s.armSenderTimer(m)
}

// ctrl sends a small control packet (GRANT/RESEND/ACK/BUSY) from softirq
// core context.
func (s *Socket) ctrl(pk peerKey, ty wire.PacketType, msgID uint64, off uint32, aux uint32, core int) {
	pkt := s.host.NIC.AcquirePacket()
	pkt.IP = wire.IPv4Header{TTL: 64, Protocol: s.cfg.Proto, Src: s.host.Addr, Dst: pk.addr()}
	pkt.Overlay = wire.OverlayHeader{
		SrcPort: s.port, DstPort: pk.port(),
		Type: ty, MsgID: msgID, TSOOffset: off, Aux: aux,
	}
	s.host.NIC.SendSegment(s.host.SoftirqQueue(core), &nicsim.TxSegment{Pkt: pkt, MTU: s.cfg.MTU, NoTSO: true})
}

// ctrlEvent is the pooled deferred-ctrl callback (grants issued after the
// softirq grant cost).
type ctrlEvent struct {
	s    *Socket
	pk   peerKey
	ty   wire.PacketType
	id   uint64
	off  uint32
	aux  uint32
	core int
}

// Run implements sim.Action.
func (c *ctrlEvent) Run() {
	s := c.s
	s.ctrl(c.pk, c.ty, c.id, c.off, c.aux, c.core)
	s.ctrlFree = append(s.ctrlFree, c)
}

// deferCtrl charges cost on the softirq core, then sends the control
// packet — the pooled equivalent of RunSoftirq with a ctrl closure.
func (s *Socket) deferCtrl(cost sim.Time, pk peerKey, ty wire.PacketType, msgID uint64, off, aux uint32, core int) {
	c := pop(&s.ctrlFree)
	if c == nil {
		//smt:coldpath -- ctrlEvent free-list refill; steady state reuses pooled events
		c = &ctrlEvent{s: s}
	}
	c.pk, c.ty, c.id, c.off, c.aux, c.core = pk, ty, msgID, off, aux, core
	s.host.Softirq[core%len(s.host.Softirq)].AcquireAction(cost, c)
}

// String describes the socket for debugging.
func (s *Socket) String() string {
	return fmt.Sprintf("homa[%d/%d @%d]", s.cfg.Proto, s.port, s.host.Addr)
}
