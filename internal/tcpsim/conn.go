package tcpsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"smt/internal/cpusim"
	"smt/internal/idmap"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// MaxRTOStrikes is how many consecutive retransmission timeouts (with no
// cumulative-ACK progress between them) a connection tolerates before
// declaring the peer dead, mirroring the kernel's retransmission cap. Any
// ACK progress resets the count, so only a torn-down or fully partitioned
// peer ever trips it.
const MaxRTOStrikes = 8

// ErrTimeout is reported via OnError when MaxRTOStrikes consecutive
// retransmission timeouts elapse without progress (ETIMEDOUT semantics).
var ErrTimeout = errors.New("tcpsim: retransmission timeout (peer unresponsive)")

// The evaluation runs every connection at these fixed values.
const (
	window      = 1 << 20             // fixed flow-control window (datacenter lab: large)
	retxTimeout = 5 * sim.Millisecond // RTO: retransmission timeout
	// ackEvery acknowledges every Nth in-order packet (2 models Linux
	// delayed acks under load).
	ackEvery = 2
	// burstGap: packets arriving within this gap of the previous one are
	// GRO-coalesced (no per-burst fixed cost).
	burstGap = 2 * sim.Microsecond
)

// Config tunes connections.
type Config struct {
	MTU int // 0 means wire.DefaultMTU
}

// Stats counts connection events.
type Stats struct {
	MsgsSent      uint64
	MsgsDelivered uint64
	BytesSent     uint64
	BytesRecv     uint64
	AcksSent      uint64
	FastRetx      uint64
	RTORetx       uint64
	DecodeErrors  uint64
	OutOfOrder    uint64 // segments held until the hole before them filled
}

// Conn is one TCP connection endpoint. Message semantics are layered on
// the stream with a 4-byte length prefix, as datacenter RPC protocols do
// (§2: "the application indicates the message length at the beginning of
// each message").
type Conn struct {
	host      *cpusim.Host
	cfg       Config
	codec     Codec
	localPort uint16
	peerAddr  uint32
	peerPort  uint16
	appThread int
	queue     int // fixed NIC queue (socket-lock serialization, §3.2)
	core      int // RSS softirq core (fixed by the 5-tuple hash)

	// sender state (byte offsets in the ciphertext stream)
	chunks     []txChunk
	sndUna     int64
	sndNxt     int64
	highWater  int64 // total bytes queued
	dupAcks    int
	inRecovery bool
	recover    int64 // NewReno recovery point: one fast retransmit per window
	rto        sim.Timer
	rtoFn      func() // prebuilt RTO callback
	rtoStrikes int    // consecutive RTO firings without cumulative-ACK progress
	nicNext    uint64 // next record seq the NIC context expects (hw)
	ctxID      uint64
	txFree     []*txBuf     // recycled segment buffers
	sendFree   []*sendEvent // recycled SendMessage descriptors
	prefix     [4]byte      // the length prefix of the message being encoded

	// receiver state. rxPending/appStream are consumed from a head index
	// and compacted (see compact) instead of re-sliced, so their
	// capacity is reused even when they never fully drain — re-slicing
	// forever walks forward through the backing array and forces a
	// fresh allocation per growth.
	rcvNxt    int64
	ooo       idmap.Map[[]byte] // out-of-order segments by stream offset
	oooFree   [][]byte          // recycled ooo buffers, returned once merged
	rxPending []byte            // in-order ciphertext awaiting app-context decode
	rxHead    int               // consumed prefix of rxPending
	rxSched   bool
	lastRx    sim.Time
	pktCount  int
	ackTimer  sim.Timer
	ackFn     func() // prebuilt delayed-ack callback
	sendAckFn func() // prebuilt softirq ack-build callback
	deliverFn func() // prebuilt app-wakeup callback
	drainFn   func() // prebuilt app-context completion of a read cycle
	appStream []byte // decoded plaintext awaiting message framing
	appHead   int    // consumed prefix of appStream

	onMessage   func([]byte)
	onError     func(error)
	onHandshake func([]byte)
	established func(*Conn)
	closed      bool

	Stats Stats
}

// txChunk is a chunk queued for transmission at stream offset seq; it
// stays in Conn.chunks until cumulatively acknowledged, then goes back
// to the codec.
type txChunk struct {
	seq   int64
	chunk Chunk
}

// txBuf is a pooled segment descriptor. A first transmission of
// record-free chunks lists the queued chunks as the segment's parts,
// which the NIC gathers into packets when it cuts the segment. That is
// safe because no ACK can cover bytes never sent, so no chunk is
// released before the cut, and a codec never writes into a queued
// chunk. Offloaded records are copied into bytes instead, because the
// NIC seals the transmitted copy in place while the queued chunk keeps
// its plaintext shell for retransmission; retransmitFrom copies one
// chunk into bytes too. The NIC's Release returns the descriptor once
// the payload has been cut into wire packets.
type txBuf struct {
	c       *Conn
	parts   [][]byte // queued chunk bytes of a gathered first transmission
	bytes   []byte   // private copy of an offloaded or retransmitted segment
	recs    []nicsim.RecordDesc
	seq     int64        // stream offset of a retransmission
	keys    *tlsrec.AEAD // AEAD of a retransmission's recs
	release func()
}

// Run implements sim.Action: the softirq completion of a
// retransmission submits the copied chunk.
func (tb *txBuf) Run() {
	tb.c.sendSegment(tb.seq, len(tb.bytes), tb)
}

// getTxBuf takes a segment buffer from the connection's free list.
func (c *Conn) getTxBuf() *txBuf {
	if l := len(c.txFree); l > 0 {
		tb := c.txFree[l-1]
		c.txFree[l-1] = nil
		c.txFree = c.txFree[:l-1]
		return tb
	}
	//smt:coldpath -- txBuf free-list refill; steady state reuses pooled buffers
	tb := &txBuf{c: c}
	//smt:coldpath -- one Release hook per pooled buffer, bound at refill
	tb.release = func() {
		tb.parts = tb.parts[:0]
		tb.bytes = tb.bytes[:0]
		tb.recs = tb.recs[:0]
		tb.keys = nil
		c.txFree = append(c.txFree, tb)
	}
	return tb
}

// sendEvent is one SendMessage in flight, pooled per connection with
// its chunk list. SendMessage encodes the message into it; its first
// Run completes the syscall and copy charge and charges the encode
// cost, and its second completes that charge and queues the chunks
// for transmission.
type sendEvent struct {
	c       *Conn
	chunks  []Chunk  // the encoded message, copied out of codec scratch
	cpu     sim.Time // the encode cost, charged by the first Run
	charged bool     // the next Run queues chunks
}

// SendMessage writes one length-prefixed message to the stream. Syscall,
// copy and codec (crypto) costs charge on the connection's app thread.
// The codec encodes msg before SendMessage returns, reading it and never
// writing it, so a borrowed OnMessage slice can be sent back as is and a
// caller may reuse its buffer at once. Sends on one connection complete
// in call order on its one app thread, so encoding at the call gives
// each record the sequence number, and the same bytes, that encoding at
// the syscall's completion would.
func (c *Conn) SendMessage(msg []byte) {
	if c.closed {
		//smt:allow panic -- Send-API misuse by the harness; bytes on a closed conn would corrupt the stream accounting
		panic("tcpsim: send on closed conn")
	}
	if len(msg) == 0 {
		//smt:allow panic -- Send-API misuse by the harness; an empty message has no framing
		panic("tcpsim: empty message")
	}
	c.Stats.MsgsSent++
	c.Stats.BytesSent += uint64(len(msg))
	var e *sendEvent
	if l := len(c.sendFree); l > 0 {
		e = c.sendFree[l-1]
		c.sendFree[l-1] = nil
		c.sendFree = c.sendFree[:l-1]
	} else {
		//smt:coldpath -- sendEvent free-list refill; steady state reuses pooled descriptors
		e = &sendEvent{c: c}
	}
	// The codec's chunk list is scratch that the next EncodeMessage
	// overwrites, and a second SendMessage encodes before this one
	// queues, so the list is copied into the event.
	binary.BigEndian.PutUint32(c.prefix[:], uint32(len(msg)))
	chunks, cpu := c.codec.EncodeMessage(c.prefix[:], msg)
	e.chunks, e.cpu = append(e.chunks[:0], chunks...), cpu
	cm := c.host.CM
	sendCost := cm.Syscall + cm.Copy(len(c.prefix)+len(msg)) + cm.TCPPerConn*sim.Time(c.host.StreamConns)
	c.host.App[c.appThread%len(c.host.App)].AcquireAction(sendCost, e)
}

// Run implements sim.Action.
func (e *sendEvent) Run() {
	c := e.c
	if !e.charged {
		e.charged = true
		c.host.App[c.appThread%len(c.host.App)].AcquireAction(e.cpu+c.host.CM.TCPTxSegment, e)
	} else {
		e.queue()
	}
}

// queue appends the encoded chunks to the send queue, recycles the
// descriptor and transmits what the window allows.
func (e *sendEvent) queue() {
	c := e.c
	for _, ch := range e.chunks {
		c.chunks = append(c.chunks, txChunk{seq: c.highWater, chunk: ch})
		c.highWater += int64(len(ch.Bytes))
	}
	e.chunks, e.charged = e.chunks[:0], false
	c.sendFree = append(c.sendFree, e)
	c.trySend()
}

// OnMessage registers the reassembled-message callback. The message
// slice is borrowed from the connection's receive buffer: it stays
// valid until fn returns, and a consumer that keeps the bytes copies
// them.
func (c *Conn) OnMessage(fn func([]byte)) { c.onMessage = fn }

// OnHandshake registers the receiver for handshake-flight packets
// (TypeHandshake Aux=3). fn sees each packet's payload bytes, valid
// only for the duration of the call.
func (c *Conn) OnHandshake(fn func(payload []byte)) { c.onHandshake = fn }

// SetCodec installs the connection's record codec — the "switch the
// established connection to the negotiated keys" step a live handshake
// performs (the setsockopt(TLS_TX/TLS_RX) analog for kTLS). It must
// run before any stream data flows in either direction: the record
// layer has no re-keying mid-stream, so replacing the codec once
// ciphertext is in flight desynchronizes both ends by design. A message
// is encoded when SendMessage is called, so SetCodec after the first
// SendMessage is refused: that message would go out under the old
// codec.
func (c *Conn) SetCodec(codec Codec) {
	if codec == nil {
		//smt:allow panic -- wiring bug: clearing the codec mid-stream would silently fall back to plaintext
		panic("tcpsim: SetCodec(nil)")
	}
	if c.Stats.MsgsSent > 0 {
		//smt:allow panic -- wiring bug: messages already encoded under the old codec would reach the peer's new one
		panic("tcpsim: SetCodec after SendMessage")
	}
	c.codec = codec
}

// SendHandshake transmits one opaque handshake flight on the
// connection as TypeHandshake packets (Aux=3 — distinct from the
// SYN/SYN-ACK control pair), cut at the MTU in software. The key
// exchange uses it before the connection's codec exists; flights
// bypass the stream's sequence space and reliability machinery (dialed
// worlds handshake over a fault-free fabric). payload must stay
// immutable until the softirq send fires.
func (c *Conn) SendHandshake(payload []byte) {
	cm := c.host.CM
	c.host.RunSoftirq(c.core, cm.TCPTxSegment, func() {
		per := c.cfg.MTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
		for off := 0; off < len(payload); off += per {
			end := off + per
			if end > len(payload) {
				end = len(payload)
			}
			pkt := c.host.NIC.AcquirePacket()
			pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoTCP, Src: c.host.Addr, Dst: c.peerAddr}
			pkt.Overlay = wire.OverlayHeader{
				SrcPort: c.localPort, DstPort: c.peerPort,
				Type: wire.TypeHandshake, Aux: 3,
				MsgLen: uint32(len(payload)),
			}
			pkt.SetPayload(payload[off:end])
			c.host.NIC.SendSegment(c.host.SoftirqQueue(c.core), &nicsim.TxSegment{Pkt: pkt, MTU: c.cfg.MTU, NoTSO: true})
		}
	})
}

// OnError registers the fatal-error callback (TLS alert equivalent).
func (c *Conn) OnError(fn func(error)) { c.onError = fn }

// AppThread reports the connection's application thread.
func (c *Conn) AppThread() int { return c.appThread }

// LocalPort reports the local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// PeerAddr reports the remote address (on an accepted connection, the
// dialing client — the half of the 4-tuple dialed worlds demux on).
func (c *Conn) PeerAddr() uint32 { return c.peerAddr }

// PeerPort reports the remote port.
func (c *Conn) PeerPort() uint16 { return c.peerPort }

// trySend transmits queued chunks within the window as TSO segments of
// whole chunks (records never straddle segments, the kTLS-hw layout).
// A segment of record-free chunks is handed to the NIC as the list of
// its queued chunks, which the NIC gathers into packets; one with
// offloaded records is copied into the descriptor's buffer for the NIC
// to seal (see txBuf).
func (c *Conn) trySend() {
	for c.sndNxt < c.sndUna+window {
		var (
			tb      = c.getTxBuf()
			parts   = tb.parts[:0]
			recs    = tb.recs[:0]
			keys    *tlsrec.AEAD
			started = c.sndNxt
			n       int
		)
		for i := range c.chunks {
			tc := &c.chunks[i]
			end := tc.seq + int64(len(tc.chunk.Bytes))
			if end <= c.sndNxt {
				continue // already sent
			}
			if tc.seq != started+int64(n) {
				break // non-contiguous (shouldn't happen)
			}
			if n+len(tc.chunk.Bytes) > wire.MaxTSOSegment {
				break
			}
			if started+int64(n)+int64(len(tc.chunk.Bytes)) > c.sndUna+window {
				break
			}
			for _, r := range tc.chunk.Records {
				r.Off += n
				recs = append(recs, r)
			}
			if tc.chunk.Keys != nil {
				keys = tc.chunk.Keys
			}
			parts = append(parts, tc.chunk.Bytes)
			n += len(tc.chunk.Bytes)
		}
		tb.parts, tb.recs, tb.keys = parts, recs, keys
		if n == 0 {
			tb.release()
			return
		}
		if len(recs) > 0 {
			for _, p := range parts {
				tb.bytes = append(tb.bytes, p...)
			}
			tb.parts = parts[:0]
		}
		c.sendSegment(started, n, tb)
		c.sndNxt = started + int64(n)
	}
}

// sendSegment submits the n-byte TSO segment tb describes at stream
// offset seq, for NIC sealing of its records when it has keys. The
// NIC's Release recycles tb once it has cut the payload.
func (c *Conn) sendSegment(seq int64, n int, tb *txBuf) {
	pkt := c.host.NIC.AcquirePacket()
	pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoTCP, Src: c.host.Addr, Dst: c.peerAddr}
	pkt.Overlay = wire.OverlayHeader{
		SrcPort: c.localPort, DstPort: c.peerPort,
		Type:      wire.TypeData,
		TSOOffset: uint32(seq), // TCP sequence number
		MsgLen:    uint32(n),
	}
	seg := nicsim.TxSegment{Pkt: pkt, MTU: c.cfg.MTU, Release: tb.release}
	if len(tb.parts) > 0 {
		seg.Parts = tb.parts // read until the NIC cuts; Release recycles
	} else {
		pkt.Payload = tb.bytes // borrowed until the NIC cuts; Release recycles
	}
	if recs := tb.recs; len(recs) > 0 && tb.keys != nil {
		seg.Records = recs
		seg.Keys = tb.keys
		seg.CtxID = c.ctxID
		first := recs[0].Seq
		if c.nicNext != first {
			seg.Resync = true
		}
		c.nicNext = first + uint64(len(recs))
	}
	c.host.NIC.SendSegment(c.queue, &seg)
	c.armRTO()
}

func (c *Conn) armRTO() {
	if c.rtoFn == nil {
		//smt:coldpath -- one RTO closure per connection, cached on first use
		c.rtoFn = func() {
			if c.closed || c.sndUna >= c.highWater {
				return
			}
			c.rtoStrikes++
			if c.rtoStrikes > MaxRTOStrikes {
				// Peer unresponsive across consecutive timeouts: give up
				// like the kernel's retransmission cap (ETIMEDOUT). Without
				// this, a connection whose peer tore down (e.g. on a record
				// authentication failure) retransmits forever and the world
				// never quiesces.
				if c.onError != nil {
					c.onError(ErrTimeout)
				}
				c.Close()
				return
			}
			c.Stats.RTORetx++
			c.inRecovery = true
			c.recover = c.sndNxt
			c.dupAcks = 0
			c.retransmitFrom(c.sndUna)
			c.armRTO()
		}
	}
	c.host.Eng.ResetAfter(&c.rto, retxTimeout, c.rtoFn)
}

// retransmitFrom resends the chunk containing stream offset seq
// (hardware records get a resync; software ciphertext is resent
// verbatim). The chunk is copied now, because an ACK may release it
// before the softirq completion submits the copy. Offloaded records
// re-seal that copy, never the queued shell: sealing the shell in place
// would destroy it, and a second in-place seal under the same record
// sequence XORs the GCM keystream back out, so the retransmission would
// carry plaintext on the wire.
func (c *Conn) retransmitFrom(seq int64) {
	for i := range c.chunks {
		tc := &c.chunks[i]
		if seq < tc.seq || seq >= tc.seq+int64(len(tc.chunk.Bytes)) {
			continue
		}
		tb := c.getTxBuf()
		tb.bytes = append(tb.bytes[:0], tc.chunk.Bytes...)
		tb.recs = append(tb.recs[:0], tc.chunk.Records...)
		tb.seq, tb.keys = tc.seq, tc.chunk.Keys
		c.host.Softirq[c.core%len(c.host.Softirq)].AcquireAction(c.host.CM.TCPTxSegment, tb)
		return
	}
}

// unwrap returns the stream offset nearest ref whose low 32 bits are
// seq: the wire carries sequence numbers modulo 2^32 and the connection
// counts in 64 bits, so each wire value is read against the counter it
// is compared with (serial-number arithmetic, RFC 9293 §3.4).
func unwrap(ref int64, seq uint32) int64 {
	return ref + int64(int32(seq-uint32(ref)))
}

// handleAck processes the cumulative ACK number wireAck on the softirq
// core, with NewReno-style recovery: one fast retransmit per window,
// then one more retransmission per partial ACK until the recovery point
// is crossed.
func (c *Conn) handleAck(wireAck uint32) {
	ack := unwrap(c.sndUna, wireAck)
	if ack > c.sndUna {
		c.sndUna = ack
		c.dupAcks = 0
		c.rtoStrikes = 0
		// Fully acked chunks go back to the codec; a partly acked one
		// may still be retransmitted, so it stays queued.
		keep := c.chunks[:0]
		for _, tc := range c.chunks {
			if tc.seq+int64(len(tc.chunk.Bytes)) > ack {
				keep = append(keep, tc)
			} else {
				c.codec.Release(tc.chunk)
			}
		}
		clear(c.chunks[len(keep):])
		c.chunks = keep
		if c.inRecovery {
			if ack >= c.recover {
				c.inRecovery = false
			} else {
				c.retransmitFrom(c.sndUna) // partial ACK: next hole
			}
		}
		if c.sndUna >= c.highWater {
			c.rto.Stop()
		}
		c.trySend() // window slid open: ack-clocked transmission (softirq ctx)
		return
	}
	if ack == c.sndUna && c.sndUna < c.sndNxt {
		c.dupAcks++
		if c.dupAcks >= 3 && !c.inRecovery {
			c.Stats.FastRetx++
			c.inRecovery = true
			c.recover = c.sndNxt
			c.dupAcks = 0
			c.retransmitFrom(c.sndUna)
		}
	}
}

// handleData processes a data packet on the softirq core.
func (c *Conn) handleData(pkt *wire.Packet) {
	seq := unwrap(c.rcvNxt, pkt.Overlay.TSOOffset)
	data := pkt.Payload
	advanced := false
	switch {
	case seq == c.rcvNxt:
		// No slice of rxPending outlives deliverCycle, so the consumed
		// prefix can be reclaimed even while a cycle is scheduled.
		c.rxPending, c.rxHead = compact(c.rxPending, c.rxHead, 0)
		c.rxPending = append(c.rxPending, data...)
		c.rcvNxt += int64(len(data))
		advanced = true
		for {
			d, ok := c.ooo.Delete(uint64(c.rcvNxt))
			if !ok {
				break
			}
			c.rxPending = append(c.rxPending, d...)
			c.rcvNxt += int64(len(d))
			c.oooFree = append(c.oooFree, d[:0])
		}
	case seq > c.rcvNxt:
		if !c.ooo.Has(uint64(seq)) {
			c.Stats.OutOfOrder++
			c.holdOOO(seq, data)
		}
		c.sendAck() // immediate dupack
	default:
		c.sendAck() // stale retransmission: re-ack
	}
	if advanced {
		c.pktCount++
		if c.pktCount >= ackEvery {
			c.sendAck()
		} else if !c.ackTimer.Active() {
			// Delayed ACK: a lone packet is acknowledged after a short
			// hold, like Linux's delayed-ACK timer.
			if c.ackFn == nil {
				c.ackFn = c.sendAck
			}
			c.host.Eng.ResetAfter(&c.ackTimer, 40*sim.Microsecond, c.ackFn)
		}
		c.scheduleDelivery()
	}
	c.Stats.BytesRecv += uint64(len(data))
}

// holdOOO keeps a copy of an out-of-order segment at stream offset seq
// until the hole before it is filled, in a buffer from oooFree.
func (c *Conn) holdOOO(seq int64, data []byte) {
	var buf []byte
	if l := len(c.oooFree); l > 0 {
		buf = c.oooFree[l-1]
		c.oooFree[l-1] = nil
		c.oooFree = c.oooFree[:l-1]
	}
	c.ooo.Put(uint64(seq), append(buf, data...))
}

func (c *Conn) sendAck() {
	c.pktCount = 0
	c.ackTimer.Stop()
	c.Stats.AcksSent++
	cm := c.host.CM
	if c.sendAckFn == nil {
		//smt:coldpath -- one ACK closure per connection, cached on first use
		c.sendAckFn = func() {
			pkt := c.host.NIC.AcquirePacket()
			pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoTCP, Src: c.host.Addr, Dst: c.peerAddr}
			pkt.Overlay = wire.OverlayHeader{
				SrcPort: c.localPort, DstPort: c.peerPort,
				Type: wire.TypeAck, Aux: uint32(c.rcvNxt),
			}
			c.host.NIC.SendSegment(c.host.SoftirqQueue(c.core), &nicsim.TxSegment{Pkt: pkt, MTU: c.cfg.MTU, NoTSO: true})
		}
	}
	c.host.RunSoftirq(c.core, cm.TCPAck, c.sendAckFn)
}

// scheduleDelivery wakes the app thread; bytes arriving while the app is
// busy are processed in the same wakeup (receive batching — TCP's
// streaming overlap advantage for large transfers, §5.1), but one recv
// cycle returns at most TCPDeliverBatch bytes: the application reads the
// stream in buffer-sized chunks, so large messages take several
// epoll+read cycles where a message transport delivers in one (§2).
func (c *Conn) scheduleDelivery() {
	if c.rxSched || len(c.rxPending) == c.rxHead {
		return
	}
	c.rxSched = true
	cm := c.host.CM
	c.host.RunSoftirq(c.core, cm.WakeupCPU, nil)
	if c.deliverFn == nil {
		c.deliverFn = c.deliverCycle
	}
	c.host.Eng.After(cm.WakeupLatency, c.deliverFn)
}

// compact drops buf's consumed prefix buf[:head], all but its last keep
// bytes, once the prefix is at least half of buf, moving the rest to the
// front so the capacity is reused. The move costs at most one byte per
// byte consumed.
func compact(buf []byte, head, keep int) ([]byte, int) {
	if head <= keep || 2*head < len(buf) {
		return buf, head
	}
	return buf[:copy(buf, buf[head-keep:])], keep
}

// deliverCycle is one read() of the application's receive loop: it
// decodes up to TCPDeliverBatch bytes of rxPending straight into
// appStream and charges the app core, whose completion parses messages
// out of appStream.
//
//smt:hotroot
func (c *Conn) deliverCycle() {
	cm := c.host.CM
	n := len(c.rxPending) - c.rxHead
	if max := cm.TCPDeliverBatch; max > 0 && n > max {
		n = max
	}
	data := c.rxPending[c.rxHead : c.rxHead+n]
	c.rxHead += n
	// The previous cycle's messages have all been handed out, so the
	// parsed prefix of appStream can be reclaimed, but for the codec's
	// headroom.
	c.appStream, c.appHead = compact(c.appStream, c.appHead, DecodeHeadroom)
	plain, cpu, err := c.codec.DecodeStreamTo(c.appStream, data)
	if err != nil {
		c.rxSched = false
		c.Stats.DecodeErrors++
		if c.onError != nil {
			c.onError(err)
		}
		c.Close()
		return
	}
	c.appStream = plain
	total := cm.EpollDispatch + cm.Syscall + cm.TCPDeliver + cm.Copy(len(data)) + cpu +
		cm.TCPPerConn*sim.Time(c.host.StreamConns)
	if c.drainFn == nil {
		//smt:coldpath -- one read-completion closure per connection, cached on first use
		c.drainFn = c.drainCycle
	}
	c.host.RunApp(c.appThread, total, c.drainFn)
}

// drainCycle is a read cycle's app-context completion: deliver the
// messages now complete in appStream, then issue the next read() of
// the loop while bytes are pending.
//
//smt:hotroot
func (c *Conn) drainCycle() {
	c.drainMessages()
	if len(c.rxPending) > c.rxHead {
		c.deliverCycle()
		return
	}
	c.rxSched = false
}

// drainMessages parses length-prefixed messages from the plaintext
// stream and hands each to OnMessage as a borrowed slice of appStream.
func (c *Conn) drainMessages() {
	for {
		buf := c.appStream[c.appHead:]
		if len(buf) < 4 {
			return
		}
		n := int(binary.BigEndian.Uint32(buf))
		if len(buf) < 4+n {
			return
		}
		c.appHead += 4 + n
		c.Stats.MsgsDelivered++
		if c.onMessage != nil {
			c.onMessage(buf[4 : 4+n : 4+n])
		}
	}
}

// Close tears the connection down locally (no FIN exchange modeled).
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.host.StreamConns--
	c.rto.Stop()
}

// String identifies the connection.
func (c *Conn) String() string {
	return fmt.Sprintf("tcp %d:%d->%d:%d", c.host.Addr, c.localPort, c.peerAddr, c.peerPort)
}
