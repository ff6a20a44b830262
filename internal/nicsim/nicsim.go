// Package nicsim models a commodity NIC of the ConnectX-6/7 class as used
// by the paper: TSO (replicating the overlay-TCP header onto MTU-sized
// packets and incrementing IPID), and TLS "autonomous offload" [Pismenny
// et al., ASPLOS'21] — per-flow-context crypto engines with
// self-incrementing record sequence counters and resync descriptors.
//
// The §3.2 hazard is reproduced faithfully: a resync descriptor and its
// segment are two separate events on a queue, so descriptor pairs
// submitted to *different* queues against a shared context can interleave
// and encrypt with the wrong sequence number. The result is functional,
// not just counted: the record is sealed with the engine's (wrong)
// counter, so the receiver's AEAD open fails exactly as on real hardware
// (Figure 2 "Out-seq" → corrupted segment).
package nicsim

import (
	"fmt"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// RecordDesc tells the NIC where one TLS record lives inside a segment
// payload and which sequence number it must be sealed with.
type RecordDesc struct {
	Off      int    // offset of the 5-byte record header in the payload
	InnerLen int    // inner plaintext length (content ‖ type ‖ padding)
	Seq      uint64 // record sequence number the stack expects
}

// TxSegment is one unit of work submitted to a NIC queue: a TSO segment
// (or a single pre-cut packet when NoTSO) plus optional TLS offload
// descriptors.
type TxSegment struct {
	// Pkt holds the header template and the full segment payload. The
	// overlay header is replicated verbatim onto every packet TSO cuts.
	Pkt *wire.Packet
	// MTU bounds each cut packet's total wire size.
	MTU int
	// NoTSO submits the packet as-is (the stack segmented in software).
	NoTSO bool

	// Records requests NIC TLS encryption of the described records
	// (nil = payload goes out as submitted, already encrypted or plain).
	Records []RecordDesc
	// Keys provides the AEAD installed into the flow context on first
	// use of CtxID.
	Keys *tlsrec.AEAD
	// CtxID selects the flow context. SMT uses one context per
	// (session, queue); kTLS uses one per connection.
	CtxID uint64
	// Resync prepends a resync descriptor setting the context's counter
	// to Records[0].Seq before the segment is processed.
	Resync bool

	// OnWire, if non-nil, runs when the segment's last packet has been
	// serialized onto the link.
	OnWire func()

	// Release selects the payload ownership mode of the TSO cut.
	//
	// Non-nil: the payload is recyclable scratch — the cut copies the
	// bytes into pool-owned per-packet buffers, then Release fires so
	// the producer can reuse the buffer. Only valid for buffers that are
	// written once and never mutated while packets are in flight.
	//
	// Nil: the cut packets alias the payload directly (zero copy). The
	// producer must keep the memory alive until every packet has been
	// consumed — and note that later in-place mutation (the kTLS-style
	// retransmit re-seal) is visible to packets still in flight, exactly
	// as on the pre-pooling data path.
	//
	// Release is not invoked for NoTSO segments — there the packet
	// itself carries the payload to the receiver.
	Release func()
}

// tlsCtx is the in-NIC per-flow crypto state: key material plus the
// self-incrementing record sequence counter.
type tlsCtx struct {
	aead *tlsrec.AEAD
	next uint64
}

// Stats counts NIC-level events of interest to the experiments.
type Stats struct {
	TxSegments uint64
	TxPackets  uint64
	TxBytes    uint64
	RxPackets  uint64
	SealedRecs uint64
	Corrupted  uint64 // records sealed with a mismatched counter (§3.2)
	Resyncs    uint64
	CtxAllocs  uint64
	CtxEvicts  uint64
	LiveCtx    int
}

// pendingPkt is a packet waiting in a queue's transmit FIFO.
type pendingPkt struct {
	pkt    *wire.Packet
	onWire func()
}

// pktFIFO is one queue's transmit FIFO, consumed from a head index and
// compacted instead of re-sliced, so its backing array is reused even
// when the queue never fully drains.
type pktFIFO struct {
	pkts []pendingPkt
	head int
}

func (f *pktFIFO) empty() bool { return f.head == len(f.pkts) }

// push appends p. Once the consumed prefix is at least half of the
// slice, the live tail moves to the front first: at most one move per
// packet popped, and no growth while the queue's depth is steady.
func (f *pktFIFO) push(p pendingPkt) {
	if f.head > 0 && 2*f.head >= len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		clear(f.pkts[n:])
		f.pkts, f.head = f.pkts[:n], 0
	}
	f.pkts = append(f.pkts, p)
}

// pop removes and returns the oldest packet; the FIFO must be non-empty.
func (f *pktFIFO) pop() pendingPkt {
	p := f.pkts[f.head]
	f.pkts[f.head] = pendingPkt{}
	f.head++
	return p
}

// wireEvent is the pooled serialization-done callback of the wire
// arbiter: one packet leaving the link, handed to the network.
type wireEvent struct {
	n      *NIC
	pkt    *wire.Packet
	onWire func()
}

// Run implements sim.Action.
func (w *wireEvent) Run() {
	n, pkt, onWire := w.n, w.pkt, w.onWire
	w.pkt = nil
	w.onWire = nil
	n.wireFree = append(n.wireFree, w)
	n.wireBusy = false
	n.net.Deliver(pkt)
	if onWire != nil {
		onWire()
	}
	n.kickWire()
}

// NIC is one host's network interface.
type NIC struct {
	eng  *sim.Engine
	cm   *cost.Model
	net  *netsim.Network
	addr uint32

	queues []*sim.Resource // per-queue descriptor processing
	ctxs   map[uint64]*tlsCtx
	ctxLRU []uint64 // crude FIFO order for eviction accounting
	CtxCap int      // max live flow contexts (0 = unlimited)

	// Per-queue packet FIFOs and the round-robin wire arbiter: the link
	// transmits one packet at a time, cycling across non-empty queues.
	// With one active queue a segment's packets leave back to back (GRO
	// merges well at the receiver); with many active queues packets from
	// different segments interleave on the wire — which is what defeats
	// receive-side aggregation under multi-queue load.
	pq       []pktFIFO
	wireBusy bool
	rrNext   int
	wireFree []*wireEvent // pooled serialization-done callbacks

	// OnRx is the host's packet dispatch entry point.
	OnRx func(*wire.Packet)

	Stats Stats
}

// New creates a NIC with nQueues transmit queues, attached to net at addr.
func New(eng *sim.Engine, cm *cost.Model, net *netsim.Network, addr uint32, nQueues int) *NIC {
	if nQueues < 1 {
		//smt:allow panic -- construction-time config contract; a queueless NIC is a harness bug
		panic("nicsim: need at least one queue")
	}
	n := &NIC{
		eng: eng, cm: cm, net: net, addr: addr,
		ctxs: make(map[uint64]*tlsCtx),
		pq:   make([]pktFIFO, nQueues),
	}
	for q := 0; q < nQueues; q++ {
		n.queues = append(n.queues, sim.NewResource(eng))
	}
	net.Attach(addr, func(pkt *wire.Packet) {
		n.Stats.RxPackets++
		if n.OnRx != nil {
			n.OnRx(pkt)
		}
	})
	return n
}

// Queues reports the number of transmit queues.
func (n *NIC) Queues() int { return len(n.queues) }

// AcquirePacket takes a packet from the attached network's free list —
// the owning way for stacks on this host to build transmit packets.
func (n *NIC) AcquirePacket() *wire.Packet { return n.net.AcquirePacket() }

// HasContext reports whether a live flow context exists for id.
func (n *NIC) HasContext(id uint64) bool {
	_, ok := n.ctxs[id]
	return ok
}

// ContextSeq returns the context's current expected sequence number, for
// tests and the Fig. 2 demo.
func (n *NIC) ContextSeq(id uint64) (uint64, bool) {
	c, ok := n.ctxs[id]
	if !ok {
		return 0, false
	}
	return c.next, true
}

// SendSegment submits seg to transmit queue q. Descriptor processing,
// optional resync, TLS sealing, TSO splitting and wire serialization all
// happen in virtual time; packets are handed to the network as their last
// bit leaves the link.
func (n *NIC) SendSegment(q int, seg *TxSegment) {
	if q < 0 || q >= len(n.queues) {
		//smt:allow panic -- stack/queue wiring bug; charging another queue's arbitration would mislabel measurements
		panic(fmt.Sprintf("nicsim: queue %d out of range", q))
	}
	qr := n.queues[q]
	n.Stats.TxSegments++

	if len(seg.Records) > 0 {
		ctx, ok := n.ctxs[seg.CtxID]
		if !ok {
			ctx = &tlsCtx{aead: seg.Keys, next: seg.Records[0].Seq}
			n.installCtx(seg.CtxID, ctx)
			qr.Acquire(n.cm.NICCtxAlloc, nil)
		} else if seg.Resync {
			n.Stats.Resyncs++
			first := seg.Records[0].Seq
			// The resync descriptor is a *separate* queue event: between
			// its completion and the segment's, other queues can touch a
			// shared context — the non-atomicity of §3.2.
			qr.Acquire(n.cm.NICResync, func() { ctx.next = first })
		}
		qr.Acquire(n.cm.NICPerSegment, func() {
			n.seal(seg, ctx)
			n.emit(q, seg)
		})
		return
	}
	//smt:allow hotalloc -- per-segment NIC resource closure; counted in the steady-state alloc budget
	qr.Acquire(n.cm.NICPerSegment, func() { n.emit(q, seg) })
}

func (n *NIC) installCtx(id uint64, ctx *tlsCtx) {
	if n.CtxCap > 0 && len(n.ctxs) >= n.CtxCap {
		// Evict the oldest context; a later segment for it will re-alloc.
		for len(n.ctxLRU) > 0 {
			victim := n.ctxLRU[0]
			n.ctxLRU = n.ctxLRU[1:]
			if _, ok := n.ctxs[victim]; ok {
				delete(n.ctxs, victim)
				n.Stats.CtxEvicts++
				break
			}
		}
	}
	n.ctxs[id] = ctx
	n.ctxLRU = append(n.ctxLRU, id)
	n.Stats.CtxAllocs++
	n.Stats.LiveCtx = len(n.ctxs)
}

// seal encrypts the segment's records with the context's counter. A
// counter mismatch produces a *corrupted* record: it is sealed with the
// counter value, not the stack's intended sequence number, so the
// receiver's authentication fails (Figure 2, "Out-seq").
func (n *NIC) seal(seg *TxSegment, ctx *tlsCtx) {
	for _, rec := range seg.Records {
		use := ctx.next
		if use != rec.Seq {
			n.Stats.Corrupted++
		}
		ctx.next++
		if err := ctx.aead.SealInPlace(seg.Pkt.Payload, rec.Off, rec.InnerLen, use); err != nil {
			//smt:allow panic -- record descriptors were laid out by the stack's encoder; a bad one means corrupted segment state
			panic(fmt.Sprintf("nicsim: bad record descriptor: %v", err))
		}
		n.Stats.SealedRecs++
	}
}

// emit splits the segment into MTU packets (unless NoTSO) and hands them
// to the queue's transmit FIFO. Cut packets come from the network's
// pool; their payload is copied out of recyclable scratch (Release set)
// or aliased (Release nil) — see TxSegment.Release. The pool-owned
// template packet is recycled either way.
func (n *NIC) emit(q int, seg *TxSegment) {
	if seg.NoTSO {
		n.enqueue(q, seg.Pkt, seg.OnWire)
		return
	}
	mtu := seg.MTU
	if mtu <= wire.IPv4HeaderLen+wire.OverlayHeaderLen {
		//smt:allow panic -- config contract: an MTU below the header overhead can carry no payload bytes
		panic("nicsim: MTU too small")
	}
	per := mtu - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	payload := seg.Pkt.Payload
	var idx uint16
	for off := 0; off < len(payload) || off == 0; off += per {
		end := off + per
		if end > len(payload) {
			end = len(payload)
		}
		pkt := n.net.AcquirePacket()
		pkt.IP = seg.Pkt.IP
		pkt.Overlay = seg.Pkt.Overlay
		// TSO replicates the overlay header and increments IPID from the
		// stack-provided base; the stack zeroes the base so IPID is the
		// intra-segment packet index (§4.3 — with DF set the IPID has no
		// fragmentation role, it exists purely as the packet offset).
		pkt.IP.ID = seg.Pkt.IP.ID + idx
		if pkt.IP.Protocol == wire.ProtoTCP {
			// For TCP, TSO rewrites the per-packet sequence number; it
			// does *not* do this for unknown protocol numbers (§2.2),
			// which is why Homa/SMT rely on the IPID instead.
			pkt.Overlay.TSOOffset = seg.Pkt.Overlay.TSOOffset + uint32(off)
		}
		if seg.Release != nil {
			pkt.SetPayload(payload[off:end])
		} else {
			pkt.Payload = payload[off:end] // borrowed: producer keeps it alive
		}
		last := end == len(payload)
		var cb func()
		if last {
			cb = seg.OnWire
		}
		n.enqueue(q, pkt, cb)
		idx++
		if end == len(payload) {
			break
		}
	}
	// Recycle scratch (if any) and the template packet.
	if seg.Release != nil {
		seg.Release()
	}
	seg.Pkt.Release()
}

// enqueue appends a packet to queue q's FIFO and kicks the arbiter.
// Ownership transfer is inferred by smtlint's call-graph summaries (the
// packet is bound into the queue on every path), so no annotation.
func (n *NIC) enqueue(q int, pkt *wire.Packet, onWire func()) {
	n.pq[q].push(pendingPkt{pkt: pkt, onWire: onWire})
	n.kickWire()
}

// kickWire transmits the next packet, round-robining across non-empty
// queues, one packet per serialization slot.
func (n *NIC) kickWire() {
	if n.wireBusy {
		return
	}
	// Find the next non-empty queue starting from rrNext.
	for i := 0; i < len(n.pq); i++ {
		q := (n.rrNext + i) % len(n.pq)
		if n.pq[q].empty() {
			continue
		}
		pp := n.pq[q].pop()
		n.rrNext = q + 1
		n.wireBusy = true
		n.Stats.TxPackets++
		n.Stats.TxBytes += uint64(pp.pkt.WireLen())
		var we *wireEvent
		if l := len(n.wireFree); l > 0 {
			we = n.wireFree[l-1]
			n.wireFree[l-1] = nil
			n.wireFree = n.wireFree[:l-1]
		} else {
			//smt:coldpath -- wireEvent free-list refill; steady state reuses pooled events
			we = &wireEvent{n: n}
		}
		we.pkt, we.onWire = pp.pkt, pp.onWire
		n.eng.PostActionAfter(n.cm.Serialize(pp.pkt.WireLen()), we)
		return
	}
}
