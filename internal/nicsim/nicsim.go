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
	"math/bits"

	"smt/internal/cost"
	"smt/internal/idmap"
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
	// Pkt holds the header template and, unless Parts is set, the full
	// segment payload. The overlay header is replicated verbatim onto
	// every packet TSO cuts.
	Pkt *wire.Packet
	// Parts, if non-nil, is the segment payload as a list of buffers,
	// cut in order as if concatenated (Pkt.Payload is then ignored):
	// the stack hands the NIC its queued chunks instead of assembling
	// them into one buffer first. The cut gathers each packet's bytes
	// into its own buffer, so no packet aliases a part. A contiguous
	// payload is the one-part case; NoTSO and Records need it.
	Parts [][]byte
	// MTU bounds each cut packet's total wire size.
	MTU int
	// NoTSO submits the packet as-is (the stack segmented in software).
	NoTSO bool

	// Records requests NIC TLS encryption of the described records,
	// sealed in place in Pkt.Payload (nil = payload goes out as
	// submitted, already encrypted or plain).
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

	// Release selects the payload ownership mode of the TSO cut.
	//
	// Non-nil: the payload is read only until the cut, which copies the
	// bytes into pool-owned per-packet buffers; then Release fires so
	// the producer can reuse the buffer (or the parts list). Only valid
	// for bytes that are never mutated between SendSegment and the cut.
	//
	// Nil: the cut packets alias Pkt.Payload directly (zero copy). The
	// producer must keep the memory alive and unmodified until every
	// packet has been consumed. Homa PlainCodec's send copy is the only
	// producer that does. Parts are gathered (copied) either way.
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
}

// wireEvent is the pooled serialization-done callback of the wire
// arbiter: one packet leaving the link, handed to the network.
type wireEvent struct {
	n   *NIC
	pkt *wire.Packet
}

// Run implements sim.Action.
func (w *wireEvent) Run() {
	n, pkt := w.n, w.pkt
	w.pkt = nil
	n.wireFree = append(n.wireFree, w)
	n.wireBusy = false
	n.net.Deliver(pkt)
	n.kickWire()
}

// NIC is one host's network interface.
type NIC struct {
	eng  *sim.Engine
	cm   *cost.Model
	net  *netsim.Network
	addr uint32

	queues []*sim.Resource    // per-queue descriptor processing
	ctxs   idmap.Map[*tlsCtx] // flow contexts by CtxID
	jobs   []*txJob           // pooled submitted-segment copies

	// Per-queue packet FIFOs and the round-robin wire arbiter: the link
	// transmits one packet at a time, cycling across non-empty queues.
	// With one active queue a segment's packets leave back to back (GRO
	// merges well at the receiver); with many active queues packets from
	// different segments interleave on the wire — which is what defeats
	// receive-side aggregation under multi-queue load. Bit q of ready is
	// set while pq[q] is non-empty, so the arbiter finds the next queue
	// in one bit scan instead of testing every FIFO.
	pq       []netsim.FIFO[*wire.Packet]
	ready    uint64
	wireBusy bool
	rrNext   uint
	wireFree []*wireEvent // pooled serialization-done callbacks

	// OnRx is the host's packet dispatch entry point.
	OnRx func(*wire.Packet)

	Stats Stats
}

// maxQueues is the most transmit queues a NIC has: one bit each in the
// wire arbiter's ready mask.
const maxQueues = 64

// New creates a NIC with nQueues transmit queues, attached to net at addr.
func New(eng *sim.Engine, cm *cost.Model, net *netsim.Network, addr uint32, nQueues int) *NIC {
	if nQueues < 1 || nQueues > maxQueues {
		//smt:allow panic -- construction-time config contract; a queueless NIC, or one wider than the arbiter's mask, is a harness bug
		panic(fmt.Sprintf("nicsim: %d queues, need 1 to %d", nQueues, maxQueues))
	}
	n := &NIC{
		eng: eng, cm: cm, net: net, addr: addr,
		pq: make([]netsim.FIFO[*wire.Packet], nQueues),
	}
	for q := 0; q < nQueues; q++ {
		n.queues = append(n.queues, sim.NewResource(eng))
	}
	net.Attach(addr, n.receive)
	return n
}

// receive is the NIC's attachment to the network: every packet
// addressed to this host enters here, then the host's dispatch.
//
//smt:hotroot
func (n *NIC) receive(pkt *wire.Packet) {
	n.Stats.RxPackets++
	if n.OnRx != nil {
		n.OnRx(pkt)
	}
}

// Queues reports the number of transmit queues.
func (n *NIC) Queues() int { return len(n.queues) }

// AcquirePacket takes a packet from the attached network's free list —
// the owning way for stacks on this host to build transmit packets.
func (n *NIC) AcquirePacket() *wire.Packet { return n.net.AcquirePacket() }

// ContextSeq returns the context's current expected sequence number, for
// tests and the Fig. 2 demo.
func (n *NIC) ContextSeq(id uint64) (uint64, bool) {
	c, ok := n.ctxs.Get(id)
	if !ok {
		return 0, false
	}
	return c.next, true
}

// SendSegment submits seg to transmit queue q. Descriptor processing,
// optional resync, TLS sealing, TSO splitting and wire serialization all
// happen in virtual time; packets are handed to the network as their last
// bit leaves the link. The NIC copies *seg before SendSegment returns, so
// the caller may reuse or overwrite the descriptor at once; the packet,
// the Records and Parts backing arrays, the payload and the Release
// callback it names travel by reference.
func (n *NIC) SendSegment(q int, seg *TxSegment) {
	if q < 0 || q >= len(n.queues) {
		//smt:allow panic -- stack/queue wiring bug; charging another queue's arbitration would mislabel measurements
		panic(fmt.Sprintf("nicsim: queue %d out of range", q))
	}
	qr := n.queues[q]
	n.Stats.TxSegments++
	j := n.takeJob()
	j.q, j.seg = q, *seg
	if len(seg.Records) > 0 {
		ctx, ok := n.ctxs.Get(seg.CtxID)
		if !ok {
			//smt:coldpath -- one flow context per CtxID, installed by its first segment
			ctx = &tlsCtx{aead: seg.Keys, next: seg.Records[0].Seq}
			n.ctxs.Put(seg.CtxID, ctx)
			n.Stats.CtxAllocs++
			qr.Acquire(n.cm.NICCtxAlloc, nil)
		} else if seg.Resync {
			n.Stats.Resyncs++
			// The resync descriptor is a *separate* queue event: between
			// its completion and the segment's, other queues can touch a
			// shared context — the non-atomicity of §3.2.
			j.resync, j.resyncSeq = true, seg.Records[0].Seq
			qr.AcquireAction(n.cm.NICResync, j)
		}
		j.ctx = ctx
	}
	qr.AcquireAction(n.cm.NICPerSegment, j)
}

// txJob is a submitted segment: the NIC's copy of the caller's TxSegment,
// pooled per NIC. It is the completion of the segment's descriptor
// processing, which seals and emits it. A resync reserves the same job
// on the queue just before the segment, so its first Run sets the
// context's counter and its second seals and emits.
type txJob struct {
	n         *NIC
	q         int
	seg       TxSegment
	ctx       *tlsCtx // nil: nothing to seal
	resync    bool    // the next Run is the resync descriptor's completion
	resyncSeq uint64
}

// takeJob takes a job from the NIC's free list.
func (n *NIC) takeJob() *txJob {
	if l := len(n.jobs); l > 0 {
		j := n.jobs[l-1]
		n.jobs[l-1] = nil
		n.jobs = n.jobs[:l-1]
		return j
	}
	//smt:coldpath -- txJob free-list refill; steady state reuses pooled jobs
	return &txJob{n: n}
}

// Run implements sim.Action.
func (j *txJob) Run() {
	if j.resync {
		j.resync = false
		j.ctx.next = j.resyncSeq
		return
	}
	n := j.n
	if j.ctx != nil {
		n.seal(&j.seg, j.ctx)
	}
	n.emit(j.q, &j.seg)
	j.seg, j.ctx = TxSegment{}, nil
	n.jobs = append(n.jobs, j)
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
// pool. The payload is a list of parts (Pkt.Payload is the one part
// when Parts is nil), and one loop cuts every list: each packet's
// bytes are gathered from the parts into its own buffer, or, for an
// aliased payload (Release nil, one part), bound to a slice of it —
// see TxSegment.Release. The pool-owned template packet is recycled
// either way.
func (n *NIC) emit(q int, seg *TxSegment) {
	if seg.NoTSO {
		n.enqueue(q, seg.Pkt)
		return
	}
	mtu := seg.MTU
	if mtu <= wire.IPv4HeaderLen+wire.OverlayHeaderLen {
		//smt:allow panic -- config contract: an MTU below the header overhead can carry no payload bytes
		panic("nicsim: MTU too small")
	}
	per := mtu - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	parts, alias := seg.Parts, false
	if parts == nil {
		one := [1][]byte{seg.Pkt.Payload}
		parts, alias = one[:], seg.Release == nil
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	var (
		idx    uint16
		pi, po int // the cut's position: part pi, byte po of it
	)
	for off := 0; off < total || off == 0; off += per {
		end := min(off+per, total)
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
		if alias {
			pkt.Payload = parts[0][off:end] // borrowed: producer keeps it alive
		} else {
			for need := end - off; need > 0; {
				b := parts[pi][po:]
				k := min(len(b), need)
				pkt.AppendPayload(b[:k])
				need -= k
				if po += k; po == len(parts[pi]) {
					pi, po = pi+1, 0
				}
			}
		}
		n.enqueue(q, pkt)
		idx++
		if end == total {
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
func (n *NIC) enqueue(q int, pkt *wire.Packet) {
	n.pq[q].Push(pkt)
	n.ready |= 1 << q
	n.kickWire()
}

// kickWire transmits the next packet, round-robining across non-empty
// queues, one packet per serialization slot: the next queue is the
// lowest ready bit at or after rrNext, wrapping to the lowest ready bit.
func (n *NIC) kickWire() {
	if n.wireBusy || n.ready == 0 {
		return
	}
	next := n.ready >> n.rrNext << n.rrNext
	if next == 0 {
		next = n.ready
	}
	q := bits.TrailingZeros64(next)
	f := &n.pq[q]
	pkt := f.Pop()
	if f.Len() == 0 {
		n.ready &^= 1 << q
	}
	n.rrNext = uint(q) + 1
	n.wireBusy = true
	n.Stats.TxPackets++
	n.Stats.TxBytes += uint64(pkt.WireLen())
	var we *wireEvent
	if l := len(n.wireFree); l > 0 {
		we = n.wireFree[l-1]
		n.wireFree[l-1] = nil
		n.wireFree = n.wireFree[:l-1]
	} else {
		//smt:coldpath -- wireEvent free-list refill; steady state reuses pooled events
		we = &wireEvent{n: n}
	}
	we.pkt = pkt
	n.eng.PostActionAfter(n.cm.Serialize(pkt.WireLen()), we)
}
