package homa

import (
	"smt/internal/sim"
	"smt/internal/wire"
)

// inSeg tracks reassembly of one TSO segment from packets, keyed by the
// tuple (message ID, TSO offset); packet position comes from the IPID
// (or the Resend-packet-offset for retransmissions) — §4.3.
type inSeg struct {
	plainOff int
	plainLen int
	wireLen  int
	buf      []byte
	have     []bool
	got      int
	complete bool
}

// inMsg tracks one incoming message. It is pooled per socket and
// recycled, with its segments and their arrival bitmaps, once the
// message has been delivered.
type inMsg struct {
	s         *Socket
	p         *peer
	id        uint64
	msgLen    int
	wireLen   int // the segments' total wire length
	segs      []inSeg
	completed int
	plainDone int // plaintext bytes in completed segments
	granted   int
	delivered bool
	core      int // softirq core affinity
	timer     sim.Timer
	timerFn   func() // prebuilt resend-timeout callback, kept across reuses
}

// rxEvent is the pooled softirq handoff for a DATA packet redistributed
// to its message's protocol core. It owns the packet and releases it
// after rxData has copied the payload into the reassembly buffer.
type rxEvent struct {
	s    *Socket
	p    *peer
	pkt  *wire.Packet
	core int
}

// Run implements sim.Action.
func (r *rxEvent) Run() {
	s, p, pkt, core := r.s, r.p, r.pkt, r.core
	r.p, r.pkt = nil, nil
	s.rxFree = append(s.rxFree, r)
	s.rxData(p, pkt, core)
	pkt.Release()
}

// handler adapts Socket to cpusim.Handler. It is the softirq half of the
// stack.
type handler Socket

func (h *handler) sock() *Socket { return (*Socket)(h) }

// SteerCore implements cpusim.Handler: the NAPI/GRO stage always runs on
// the flow-hash core — Homa traffic between two hosts shares one 5-tuple,
// so this stage serializes on a single core (§5.2's softirq bottleneck).
// Per-message redistribution happens afterwards in HandlePacket.
func (h *handler) SteerCore(pkt *wire.Packet, ncores int) int {
	return int(pkt.Flow().FastHash() % uint64(ncores))
}

// RxCost implements cpusim.Handler: the NAPI stage cost. Back-to-back
// packets of the same message are homa_gro-merged (cheap); interleaved
// traffic — the norm under multi-queue load, since the sender's NIC
// round-robins its queues — pays the full per-packet cost.
func (h *handler) RxCost(pkt *wire.Packet) sim.Time {
	s := h.sock()
	cm := s.host.CM
	if pkt.Overlay.Type != wire.TypeData {
		return cm.HomaGrant
	}
	now := s.host.Eng.Now()
	k := msgKey{makePeerKey(pkt.IP.Src, pkt.Overlay.SrcPort), pkt.Overlay.MsgID}
	var c sim.Time
	if k == s.groLastMsg && now-s.groLastRx <= 2*sim.Microsecond {
		c = cm.HomaNAPIMerged
	} else {
		c = cm.HomaNAPI
	}
	s.groLastMsg = k
	s.groLastRx = now
	return c
}

// HandlePacket implements cpusim.Handler; it runs on the NAPI core. DATA
// packets are redistributed to their message's protocol core (Homa's
// dynamic distribution of messages across cores within one flow 5-tuple,
// §2.2), where per-packet protocol cost is charged.
func (h *handler) HandlePacket(pkt *wire.Packet, core int) {
	s := h.sock()
	switch pkt.Overlay.Type {
	case wire.TypeData:
		cm := s.host.CM
		p := s.peerFor(makePeerKey(pkt.IP.Src, pkt.Overlay.SrcPort))
		id := pkt.Overlay.MsgID
		msgCore, ok := p.core.Get(id)
		cost := cm.HomaRxPerPacket
		if !ok {
			msgCore = s.host.LeastLoadedSoftirq()
			p.core.Put(id, msgCore)
			cost += cm.HomaRxMsgFixed
		}
		r := pop(&s.rxFree)
		if r == nil {
			//smt:coldpath -- rxEvent free-list refill; steady state reuses pooled events
			r = &rxEvent{s: s}
		}
		r.p, r.pkt, r.core = p, pkt, msgCore
		s.host.Softirq[msgCore%len(s.host.Softirq)].AcquireAction(cost, r)
	case wire.TypeGrant:
		s.rxGrant(pkt, core)
		pkt.Release()
	case wire.TypeResend:
		s.rxResend(pkt, core)
		pkt.Release()
	case wire.TypeAck:
		s.rxAck(pkt)
		pkt.Release()
	case wire.TypeBusy:
		// Reserved: the peer signals it is alive but not sending yet.
		pkt.Release()
	case wire.TypeHandshake:
		if s.onHandshake != nil {
			s.onHandshake(pkt.IP.Src, pkt.Overlay.SrcPort, pkt.Payload)
		}
		pkt.Release()
	}
}

func (s *Socket) rxData(p *peer, pkt *wire.Packet, core int) {
	pk := p.key
	id := pkt.Overlay.MsgID
	m, ok := p.in.Get(id)
	if !ok {
		if p.done.Has(id) {
			// Late duplicate of a completed message. Re-ACK it: the
			// original ACK may have been lost, and the sender re-pushes on
			// its timeout until one arrives — discarding silently would
			// deadlock the pair into a permanent re-push/discard cycle.
			s.Stats.SpuriousPkts++
			s.ctrl(pk, wire.TypeAck, id, 0, 0, core)
			return
		}
		if m = s.newInMsg(p, pkt, core); m == nil {
			return // replay or garbage: dropped without decryption
		}
	}
	if m.delivered {
		s.Stats.SpuriousPkts++
		return
	}

	span := p.codec.SegSpan()
	segIdx := int(pkt.Overlay.TSOOffset) / span
	if segIdx < 0 || segIdx >= len(m.segs) || int(pkt.Overlay.TSOOffset)%span != 0 {
		s.Stats.SpuriousPkts++
		return
	}
	seg := &m.segs[segIdx]

	per := s.cfg.MTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	pktIdx := int(pkt.IP.ID)
	if pkt.Overlay.Flags&wire.FlagRetransmit != 0 {
		pktIdx = int(pkt.Overlay.ResendPktOff)
	}
	if pktIdx < 0 || pktIdx >= len(seg.have) {
		s.Stats.SpuriousPkts++
		return
	}
	if seg.have[pktIdx] {
		s.Stats.SpuriousPkts++
		return
	}
	off := pktIdx * per
	if off+len(pkt.Payload) > seg.wireLen {
		s.Stats.SpuriousPkts++
		return
	}
	copy(seg.buf[off:], pkt.Payload)
	seg.have[pktIdx] = true
	seg.got++
	s.Stats.BytesRecv += uint64(len(pkt.Payload))

	if seg.got == len(seg.have) && !seg.complete {
		seg.complete = true
		m.completed++
		m.plainDone += seg.plainLen
	}
	s.progress(m, core)
}

// newInMsg registers an unseen message, enforcing codec admission
// (replay protection for SMT).
func (s *Socket) newInMsg(p *peer, pkt *wire.Packet, core int) *inMsg {
	msgLen := int(pkt.Overlay.MsgLen)
	if msgLen <= 0 {
		return nil
	}
	if err := p.codec.AcceptMessage(pkt.Overlay.MsgID); err != nil {
		s.Stats.Replays++
		return nil
	}
	m := pop(&s.inFree)
	if m == nil {
		//smt:coldpath -- inMsg free-list refill; steady state reuses delivered messages
		m = &inMsg{s: s}
		//smt:coldpath -- one timer callback per pooled message, bound at refill
		m.timerFn = m.resendTimeout
	}
	m.p, m.id, m.msgLen, m.core = p, pkt.Overlay.MsgID, msgLen, core
	m.completed, m.plainDone, m.granted, m.delivered = 0, 0, unschedBytes, false
	span := p.codec.SegSpan()
	m.segs = resize(m.segs, nSegs(msgLen, span))
	m.wireLen = 0
	for i := range m.segs {
		off := i * span
		n := min(span, msgLen-off)
		wl := p.codec.WireLen(off, n)
		seg := &m.segs[i]
		seg.plainOff, seg.plainLen, seg.wireLen = off, n, wl
		m.wireLen += wl
		seg.buf = resize(pop(&s.segBufFree), wl)
		seg.have = resize(seg.have, nPkts(wl, s.cfg.MTU))
		clear(seg.have)
		seg.got, seg.complete = 0, false
	}
	p.in.Put(m.id, m)
	s.activeIn++
	// SRPT/grant bookkeeping: registering a message scans the active-RPC
	// structures, whose size grows with receive concurrency (a known
	// Homa/Linux scalability cost; bounded by HomaScanCap).
	if n := s.activeIn; n > 1 {
		if cap := s.host.CM.HomaScanCap; cap > 0 && n > cap {
			n = cap
		}
		s.host.RunSoftirq(core, s.host.CM.HomaActiveScan*sim.Time(n), nil)
	}
	s.armResendTimer(m)
	return m
}

// progress advances grants and completes the message when everything has
// arrived.
func (s *Socket) progress(m *inMsg, core int) {
	if m.completed == len(m.segs) {
		s.complete(m, core)
		return
	}
	// Receiver-driven pacing: grants track *received bytes* continuously
	// (Homa grants on packet arrival, not segment completion), keeping
	// rttBytes of granted-but-unreceived data open. Grants are rounded
	// up to segment boundaries since the sender pushes whole segments.
	if m.msgLen > unschedBytes {
		received := m.plainDone
		for i := range m.segs {
			if seg := &m.segs[i]; !seg.complete && seg.got > 0 {
				received += seg.plainLen * seg.got / len(seg.have)
			}
		}
		want := received + rttBytes
		span := m.p.codec.SegSpan()
		want = ((want + span - 1) / span) * span
		if want > m.msgLen {
			want = m.msgLen
		}
		if want > m.granted {
			m.granted = want
			s.Stats.GrantsSent++
			s.deferCtrl(s.host.CM.HomaGrant, m.p.key, wire.TypeGrant, m.id, 0, uint32(want), core)
		}
	}
}

// complete finishes reassembly and delivers to an app thread — wakeup,
// copy and codec decode (SMT decryption) all charge in the application
// context, matching where recvmsg work happens. The ACK that lets the
// sender free its state is only sent after the message *verifies*:
// a corrupted message must still be recoverable via RESEND (§6.1).
func (s *Socket) complete(m *inMsg, core int) {
	if m.delivered {
		return
	}
	m.delivered = true
	m.timer.Stop()
	cm := s.host.CM
	s.host.RunSoftirq(core, cm.WakeupCPU, nil)

	thread := s.pickAppThread()
	d := pop(&s.deliverFree)
	if d == nil {
		//smt:coldpath -- deliverEvent free-list refill; steady state reuses pooled events
		d = &deliverEvent{s: s}
	}
	d.m, d.thread, d.core = m, thread, core
	s.host.Eng.PostActionAfter(cm.WakeupLatency, d)
}

// deliverEvent is the pooled two-step delivery of a completed message.
// Its first Run is the wakeup: the app context decodes (and decrypts)
// the segments into the event's payload buffer, returns the reassembly
// buffers and charges the app core. Its second Run is that charge's
// completion, which ACKs and hands the payload to the application, then
// recycles the message. The buffer stays with the event across reuses,
// so the payload is only valid until OnMessage returns.
type deliverEvent struct {
	s       *Socket
	m       *inMsg
	thread  int
	core    int
	payload []byte
	decoded bool // the next Run is the app-context completion
}

// Run implements sim.Action.
func (d *deliverEvent) Run() {
	if d.decoded {
		d.deliver()
		return
	}
	s, m, core := d.s, d.m, d.core
	p := m.p
	cm := s.host.CM
	// Decode (and decrypt) each segment straight into the payload
	// buffer, summing the CPU the app context owes; a corrupted segment
	// re-enters recovery. A codec writes at most a segment's wire length
	// past the buffer's end (see Codec.DecodeTo), so a buffer of the
	// message's wire length also holds the bytes a record decrypts past
	// its plaintext, and decoding never reallocates it.
	var cpu sim.Time = cm.Syscall + cm.MsgDeliver + cm.Copy(m.msgLen)
	if cap(d.payload) < m.wireLen {
		//smt:coldpath -- delivery-buffer growth; steady state reuses the event's buffer
		d.payload = make([]byte, 0, m.wireLen)
	}
	d.payload = d.payload[:0]
	for i := range m.segs {
		seg := &m.segs[i]
		plain, c, err := p.codec.DecodeTo(d.payload, m.id, m.msgLen, seg.plainOff, seg.buf[:seg.wireLen])
		cpu += c
		if err != nil {
			s.corruptSegment(m, seg, core)
			d.release()
			return
		}
		d.payload = plain
	}
	p.in.Delete(m.id)
	p.core.Delete(m.id)
	p.markDone(m.id)
	s.activeIn--
	// Every segment decoded into the payload buffer: the reassembly
	// buffers go back to the pool.
	for i := range m.segs {
		s.segBufFree = append(s.segBufFree, m.segs[i].buf)
		m.segs[i].buf = nil
	}
	d.decoded = true
	s.host.App[d.thread%len(s.host.App)].AcquireAction(cpu, d)
}

// deliver ACKs the message and hands the borrowed payload to the
// application, then returns the message and the event (with its buffer)
// to their pools.
func (d *deliverEvent) deliver() {
	s, m := d.s, d.m
	pk := m.p.key
	s.ctrl(pk, wire.TypeAck, m.id, 0, 0, d.core)
	s.Stats.MsgsDelivered++
	if s.onMessage != nil {
		s.onMessage(Delivery{
			Src: pk.addr(), SrcPort: pk.port(),
			MsgID: m.id, Payload: d.payload,
			AppThread: d.thread, Recv: s.host.Eng.Now(),
		})
	}
	m.p = nil
	s.inFree = append(s.inFree, m)
	d.release()
}

// release returns the event to the socket's free list.
func (d *deliverEvent) release() {
	d.m, d.decoded = nil, false
	d.s.deliverFree = append(d.s.deliverFree, d)
}

// corruptSegment handles an authentication failure (e.g. NIC offload
// corruption): the segment is reset and re-requested via RESEND.
func (s *Socket) corruptSegment(m *inMsg, seg *inSeg, core int) {
	s.Stats.CorruptSegs++
	m.delivered = false
	seg.complete = false
	seg.got = 0
	clear(seg.have)
	m.completed--
	m.plainDone -= seg.plainLen
	s.Stats.ResendsSent++
	s.ctrl(m.p.key, wire.TypeResend, m.id, uint32(seg.plainOff), uint32(seg.plainLen), core)
	s.armResendTimer(m)
}

// pickAppThread selects the delivery thread: the configured set (server
// worker pool) or any least-loaded app core.
func (s *Socket) pickAppThread() int {
	if len(s.cfg.AppThreads) == 0 {
		return s.host.LeastLoadedApp()
	}
	best := s.cfg.AppThreads[0]
	bestD := s.host.App[best%len(s.host.App)].QueueDelay()
	for _, t := range s.cfg.AppThreads[1:] {
		if d := s.host.App[t%len(s.host.App)].QueueDelay(); d < bestD {
			best, bestD = t, d
		}
	}
	return best
}

// armResendTimer (re)arms the receiver's missing-data timer.
func (s *Socket) armResendTimer(m *inMsg) {
	s.host.Eng.ResetAfter(&m.timer, resendTimeout, m.timerFn)
}

// resendTimeout is the resend timer's callback: if the message is still
// incomplete, RESEND the first incomplete granted segment.
func (m *inMsg) resendTimeout() {
	if m.delivered {
		return
	}
	s := m.s
	for i := range m.segs {
		if seg := &m.segs[i]; !seg.complete && seg.plainOff < m.granted {
			s.Stats.ResendsSent++
			s.ctrl(m.p.key, wire.TypeResend, m.id, uint32(seg.plainOff), uint32(seg.plainLen), m.core)
			break
		}
	}
	s.armResendTimer(m)
}

// rxGrant lets the sender push more segments from the pacer (softirq)
// context.
func (s *Socket) rxGrant(pkt *wire.Packet, core int) {
	p, ok := s.peers.Get(uint64(makePeerKey(pkt.IP.Src, pkt.Overlay.SrcPort)))
	if !ok {
		return
	}
	m, ok := p.out.Get(pkt.Overlay.MsgID)
	if !ok || m.acked {
		return
	}
	if g := int(pkt.Overlay.Aux); g > m.granted {
		m.granted = g
	}
	s.pump(m, s.host.SoftirqQueue(core), core, false)
}

// rxResend retransmits the requested range (whole segments).
func (s *Socket) rxResend(pkt *wire.Packet, core int) {
	p, ok := s.peers.Get(uint64(makePeerKey(pkt.IP.Src, pkt.Overlay.SrcPort)))
	if !ok {
		return
	}
	m, ok := p.out.Get(pkt.Overlay.MsgID)
	if !ok || m.acked {
		return
	}
	span := p.codec.SegSpan()
	from := int(pkt.Overlay.TSOOffset)
	to := from + int(pkt.Overlay.Aux)
	for seg := 0; seg < len(m.segSent); seg++ {
		start := seg * span
		if start >= to || start+span <= from {
			continue
		}
		n := span
		if start+n > len(m.payload) {
			n = len(m.payload) - start
		}
		m.segSent[seg] = true
		s.submitSegment(m, start, n, s.host.SoftirqQueue(core), core, false, true)
	}
}

// rxAck frees sender-side message state. The message and its payload
// copy go back to outFree unless a segment was ever resubmitted (see
// outMsg.resent): a first transmission's packets have all been consumed
// and its submit events have all run by the time the receiver can ACK,
// so nothing still refers to either.
func (s *Socket) rxAck(pkt *wire.Packet) {
	p, ok := s.peers.Get(uint64(makePeerKey(pkt.IP.Src, pkt.Overlay.SrcPort)))
	if !ok {
		return
	}
	if m, ok := p.out.Delete(pkt.Overlay.MsgID); ok {
		m.acked = true
		m.timer.Stop()
		if !m.resent {
			m.p = nil
			s.outFree = append(s.outFree, m)
		}
	}
}
