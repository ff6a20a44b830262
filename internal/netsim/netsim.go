// Package netsim models the datacenter fabric between hosts. Two wirings
// exist:
//
//   - Back-to-back (the paper's testbed): an ideal wire with propagation
//     and NIC pipeline latency only — no contention beyond the endpoints'
//     own links.
//   - An N-host fabric through a single output-queued switch: every
//     packet crosses one switch whose egress ports serialize at port
//     rate and share one packet buffer, so fan-in (incast) builds queues
//     at the destination's port and overload drops from the shared
//     buffer — the congestion signature datacenter transports are
//     designed around.
//
// Both wirings add fault injection (loss, reordering, duplication) for
// protocol robustness tests. Serialization onto the first link is charged
// by the transmitting NIC (which owns the link transmitter); netsim adds
// everything that happens after the bits leave the NIC.
package netsim

import (
	"fmt"

	"smt/internal/cost"
	"smt/internal/idmap"
	"smt/internal/sim"
	"smt/internal/stats"
	"smt/internal/wire"
)

// SwitchConfig models a single output-queued switch: a fixed
// DefaultSwitchLatency per packet, per-egress-port serialization at
// PortGbps and one shared buffer across all ports.
// The zero value of each field selects a default.
type SwitchConfig struct {
	// PortGbps is the egress port rate; 0 uses the cost model's link rate
	// (a non-blocking switch whose ports match the hosts' NICs).
	PortGbps float64
	// BufferBytes is the shared egress buffer; arriving packets that
	// would push the total queued bytes past it are dropped (shared-
	// buffer tail drop). 0 means unlimited.
	BufferBytes int
}

// DefaultSwitchLatency is the fixed switching (pipeline + lookup) delay
// per packet; it approximates a cut-through ToR switch hop.
const DefaultSwitchLatency = 300 * sim.Nanosecond

// DropReason classifies why the network dropped a packet, for observer
// taps.
type DropReason uint8

// Drop reasons.
const (
	// DropNoRoute: no endpoint is attached at the destination address.
	DropNoRoute DropReason = iota
	// DropPartition: the network is partitioned (failure injection).
	DropPartition
	// DropLoss: random loss injection (LossProb).
	DropLoss
	// DropSwitchBuffer: shared-buffer tail drop at the switch.
	DropSwitchBuffer
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no-route"
	case DropPartition:
		return "partition"
	case DropLoss:
		return "loss"
	case DropSwitchBuffer:
		return "switch-buffer"
	default:
		return fmt.Sprintf("DropReason(%d)", uint8(r))
	}
}

// Tap is a promiscuous observer of every packet crossing the network —
// the attachment point of the wire-compliance auditor (internal/audit).
//
// The observer contract, which keeps default artifacts byte-identical
// with a tap attached:
//
//   - A tap must not mutate packets, the network, or anything reachable
//     from them. Payload slices passed to a tap may alias borrowed
//     producer memory that is mutated after the callback returns (a
//     Homa send copy goes back to its pool at ACK and carries a later
//     message); taps copy what they keep.
//   - A tap must not draw from the engine RNG or schedule events: fault
//     sampling consumes the engine's RNG stream in a fixed order, and
//     any extra draw or event would perturb every seeded run.
//
// Callbacks fire synchronously on the single simulation goroutine:
// PacketSent at Deliver entry (before fault draws), then exactly one of
// PacketDropped or PacketDelivered for that packet; PacketDelivered
// additionally fires for each duplicate copy DupProb injects.
type Tap interface {
	// PacketSent observes a packet entering the network at Deliver.
	PacketSent(pkt *wire.Packet)
	// PacketDropped observes a drop (the packet is released after).
	PacketDropped(pkt *wire.Packet, reason DropReason)
	// PacketDelivered observes a packet committed for final delivery
	// (counted in Delivered); dup marks the extra copies DupProb
	// injects. Injected payload corruption is visible as pkt.Tampered.
	PacketDelivered(pkt *wire.Packet, dup bool)
}

// Topology describes a fabric: how many hosts attach and what connects
// them. Hosts are addressed wire.HostAddr(0..Hosts-1); the two-host
// back-to-back testbed of the paper is Topology{Hosts: 2}.
type Topology struct {
	// Hosts is the number of attached hosts (>= 2).
	Hosts int
	// Switch, when non-nil, routes every packet through an output-queued
	// switch; nil wires the hosts ideally (back-to-back semantics,
	// whatever the host count).
	Switch *SwitchConfig
}

// Build returns a Network realizing the topology on eng. Hosts attach
// themselves afterwards (cpusim.NewHost calls Attach via the NIC).
func (t Topology) Build(eng *sim.Engine, cm *cost.Model) *Network {
	if t.Hosts < 2 {
		//smt:allow panic -- construction-time topology contract; a one-host network is a harness bug
		panic(fmt.Sprintf("netsim: topology needs >= 2 hosts, got %d", t.Hosts))
	}
	n := New(eng, cm)
	if t.Switch != nil {
		sw := *t.Switch
		n.sw = &sw
	}
	return n
}

// egressPort is one switch output port: a FIFO of queued packets
// draining at port rate.
type egressPort struct {
	queue FIFO[*wire.Packet]
	busy  bool
}

// FIFO is a first-in first-out queue — a switch egress port's, or a NIC
// transmit queue's — consumed from a head index and compacted instead
// of re-sliced, so its backing array is reused even when the queue never
// fully drains. Pop clears the slot it empties, so the queue keeps no
// reference to an item it has handed out. The zero value is empty.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Push appends x. Once the consumed prefix is at least half of the
// slice, the live tail moves to the front first: at most one move per
// item popped, and no growth while the queue's depth is steady.
func (f *FIFO[T]) Push(x T) {
	if f.head > 0 && 2*f.head >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, x)
}

// Pop removes and returns the oldest item; the FIFO must be non-empty.
func (f *FIFO[T]) Pop() T {
	x := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	return x
}

// hop stages for the pooled hopEvent.
const (
	hopDeliver  = iota // arrival at the destination NIC
	hopSwitchIn        // switching latency done: enqueue at egress port
	hopDrain           // egress serialization done: hand to final hop
)

// hopEvent is a pooled sim.Action standing in for the per-hop closures of
// the delivery path: one struct carries a packet through a scheduling
// delay and back into the network, and returns to the per-Network free
// list when it runs. This keeps the steady-state fabric allocation-free.
type hopEvent struct {
	n     *Network
	pkt   *wire.Packet
	dst   func(*wire.Packet) // hopDeliver: receiving NIC entry point
	port  *egressPort        // switch stages
	stage uint8
}

// Run implements sim.Action.
func (h *hopEvent) Run() {
	n := h.n
	switch h.stage {
	case hopDeliver:
		dst, pkt := h.dst, h.pkt
		n.putHop(h)
		dst(pkt)
	case hopSwitchIn:
		p, pkt := h.port, h.pkt
		n.putHop(h)
		p.queue.Push(pkt)
		n.drainPort(p)
	case hopDrain:
		p, pkt := h.port, h.pkt
		n.putHop(h)
		p.busy = false
		n.bufUsed -= pkt.WireLen()
		if dst, ok := n.eps.Get(uint64(pkt.IP.Dst)); ok {
			n.finalHop(pkt, dst, 0)
		} else {
			if n.tap != nil {
				n.tap.PacketDropped(pkt, DropNoRoute)
			}
			n.Dropped.Add(1, uint64(pkt.WireLen()))
			pkt.Release()
		}
		n.drainPort(p)
	}
}

// getHop takes a hop event from the free list.
func (n *Network) getHop() *hopEvent {
	if l := len(n.hopFree); l > 0 {
		h := n.hopFree[l-1]
		n.hopFree[l-1] = nil
		n.hopFree = n.hopFree[:l-1]
		return h
	}
	//smt:coldpath -- hopEvent free-list refill; steady state reuses pooled events
	return &hopEvent{n: n}
}

// putHop recycles a hop event.
func (n *Network) putHop(h *hopEvent) {
	h.pkt = nil
	h.dst = nil
	h.port = nil
	n.hopFree = append(n.hopFree, h)
}

// Network connects endpoints addressed by IPv4-style uint32 addresses.
// The default wiring is ideal (no contention, matching the paper's
// back-to-back testbed); Topology.Build with a SwitchConfig inserts an
// output-queued switch on every path instead.
type Network struct {
	eng *sim.Engine
	cm  *cost.Model
	eps idmap.Map[func(*wire.Packet)] // receive handlers by address

	// Switch state (nil sw = ideal wiring).
	sw      *SwitchConfig
	ports   idmap.Map[*egressPort] // by destination address
	bufUsed int

	// pool recycles packets (and their payload storage) across the whole
	// world attached to this network; hopFree recycles the per-hop
	// scheduling actions. Both are single-goroutine free lists.
	pool    wire.PacketPool
	hopFree []*hopEvent

	// tap, when non-nil, observes every packet (see Tap).
	tap Tap

	// LossProb drops each packet independently with this probability.
	LossProb float64
	// DupProb delivers an extra copy of the packet.
	DupProb float64
	// ReorderProb delays a packet by ReorderDelay, letting later packets
	// overtake it.
	ReorderProb  float64
	ReorderDelay sim.Time
	// CorruptProb flips one payload byte of the packet (bit-rot / in-
	// flight tampering injection). Corrupted packets are marked
	// wire.Packet.Tampered so tests can tell injected faults from
	// protocol bugs; receivers must reject them cryptographically.
	CorruptProb float64
	// Partitioned, when true, drops everything (failure injection).
	Partitioned bool

	// Delivered / Dropped count packets and bytes for observability.
	// SwitchDrops counts the subset of Dropped lost to shared-buffer
	// overflow at the switch. Duplicated counts the extra copies DupProb
	// injects; they are also counted in Delivered, so
	// Delivered = unique deliveries + Duplicated and byte accounting
	// balances.
	Delivered   stats.Counter
	Dropped     stats.Counter
	SwitchDrops stats.Counter
	Duplicated  stats.Counter
	// Corrupted counts packets whose payload CorruptProb tampered with;
	// they continue toward delivery (and are also counted in Delivered
	// or Dropped like any other packet).
	Corrupted stats.Counter
	// QueueDepth tracks the shared-buffer occupancy (bytes) sampled at
	// every switch enqueue, for congestion observability.
	QueueDepth stats.Histogram
}

// New returns an empty, ideally wired network on eng with the given cost
// model (the back-to-back testbed). Use Topology.Build for a switched
// fabric.
func New(eng *sim.Engine, cm *cost.Model) *Network {
	return &Network{eng: eng, cm: cm}
}

// Switched reports whether packets cross an output-queued switch.
func (n *Network) Switched() bool { return n.sw != nil }

// AcquirePacket takes a reset packet from the network's free list. The
// caller owns it until it hands it to Deliver (via a NIC); the final
// consumer — or any drop point — returns it with Packet.Release. See the
// ownership rules in ARCHITECTURE.md ("Performance").
func (n *Network) AcquirePacket() *wire.Packet { return n.pool.Get() }

// BufferUsed reports the switch shared-buffer occupancy in bytes.
func (n *Network) BufferUsed() int { return n.bufUsed }

// OutstandingPackets reports how many pooled packets are in flight (see
// wire.PacketPool.OutstandingPackets). Zero at quiescence; a positive
// count means a drop or consumption path lost a packet without Release.
func (n *Network) OutstandingPackets() int { return n.pool.OutstandingPackets() }

// SetTap attaches a promiscuous observer (nil detaches). The tap must
// honor the Tap contract: no mutation, no engine RNG draws, no events.
func (n *Network) SetTap(t Tap) { n.tap = t }

// Attach registers the receive entry point for addr (a host's NIC RX).
// Attaching an address twice replaces the handler.
func (n *Network) Attach(addr uint32, rx func(*wire.Packet)) {
	if rx == nil {
		//smt:allow panic -- wiring-time contract; a nil handler would silently blackhole (and leak) every delivered packet
		panic(fmt.Sprintf("netsim: nil rx for %d", addr))
	}
	n.eps.Put(uint64(addr), rx)
}

// Deliver accepts a fully serialized packet from a transmitting NIC and
// moves it toward the destination: directly (ideal wiring) or through
// the switch's egress port for the destination. Unknown destinations and
// injected faults drop silently, as a real fabric would.
func (n *Network) Deliver(pkt *wire.Packet) {
	if n.tap != nil {
		n.tap.PacketSent(pkt)
	}
	dst, ok := n.eps.Get(uint64(pkt.IP.Dst))
	if !ok || n.Partitioned {
		if n.tap != nil {
			reason := DropNoRoute
			if ok {
				reason = DropPartition
			}
			n.tap.PacketDropped(pkt, reason)
		}
		n.Dropped.Add(1, uint64(pkt.WireLen()))
		pkt.Release()
		return
	}
	if n.LossProb > 0 && n.eng.Rand().Float64() < n.LossProb {
		if n.tap != nil {
			n.tap.PacketDropped(pkt, DropLoss)
		}
		n.Dropped.Add(1, uint64(pkt.WireLen()))
		pkt.Release()
		return
	}
	if n.CorruptProb > 0 && len(pkt.Payload) > 0 &&
		n.eng.Rand().Float64() < n.CorruptProb {
		n.corrupt(pkt)
	}
	if n.sw != nil {
		n.switchEnqueue(pkt)
		return
	}
	n.finalHop(pkt, dst, 0)
}

// corrupt flips one payload byte in place. The payload may be borrowed
// (aliasing producer memory a retransmit path will re-read), so the
// packet is first given its own copy; the mutation then cannot leak back
// into the sender's state.
func (n *Network) corrupt(pkt *wire.Packet) {
	pkt.SetPayload(pkt.Payload)
	pkt.Payload[n.eng.Rand().Intn(len(pkt.Payload))] ^= 0xff
	pkt.Tampered = true
	n.Corrupted.Add(1, uint64(pkt.WireLen()))
}

// finalHop schedules arrival at the destination NIC: one-way propagation
// plus the receiving NIC's fixed pipeline delay, plus any switch-side
// delay already accumulated.
func (n *Network) finalHop(pkt *wire.Packet, dst func(*wire.Packet), extra sim.Time) {
	delay := extra + n.cm.PropDelay + n.cm.NICFixedDelay
	if n.ReorderProb > 0 && n.eng.Rand().Float64() < n.ReorderProb {
		delay += n.ReorderDelay
	}
	n.Delivered.Add(1, uint64(pkt.WireLen()))
	if n.tap != nil {
		n.tap.PacketDelivered(pkt, false)
	}
	h := n.getHop()
	h.stage, h.pkt, h.dst = hopDeliver, pkt, dst
	n.eng.PostAction(n.eng.Now()+delay, h)
	if n.DupProb > 0 && n.eng.Rand().Float64() < n.DupProb {
		dup := n.pool.Get()
		dup.CopyFrom(pkt)
		n.Delivered.Add(1, uint64(dup.WireLen()))
		n.Duplicated.Add(1, uint64(dup.WireLen()))
		if n.tap != nil {
			n.tap.PacketDelivered(dup, true)
		}
		hd := n.getHop()
		hd.stage, hd.pkt, hd.dst = hopDeliver, dup, dst
		n.eng.PostAction(n.eng.Now()+delay+sim.Microsecond, hd)
	}
}

// switchEnqueue admits a packet to the egress port serving its
// destination, enforcing the shared buffer.
func (n *Network) switchEnqueue(pkt *wire.Packet) {
	size := pkt.WireLen()
	if max := n.sw.BufferBytes; max > 0 && n.bufUsed+size > max {
		if n.tap != nil {
			n.tap.PacketDropped(pkt, DropSwitchBuffer)
		}
		n.Dropped.Add(1, uint64(size))
		n.SwitchDrops.Add(1, uint64(size))
		pkt.Release()
		return
	}
	n.bufUsed += size
	n.QueueDepth.Record(int64(n.bufUsed))
	p, ok := n.ports.Get(uint64(pkt.IP.Dst))
	if !ok {
		p = &egressPort{}
		n.ports.Put(uint64(pkt.IP.Dst), p)
	}
	// Switching latency before the packet reaches its egress queue.
	h := n.getHop()
	h.stage, h.pkt, h.port = hopSwitchIn, pkt, p
	n.eng.PostActionAfter(DefaultSwitchLatency, h)
}

// drainPort serializes the head-of-line packet onto the egress link at
// port rate, then hands it to the final hop.
func (n *Network) drainPort(p *egressPort) {
	if p.busy || p.queue.Len() == 0 {
		return
	}
	pkt := p.queue.Pop()
	p.busy = true
	rate := n.sw.PortGbps
	if rate == 0 {
		rate = n.cm.LinkGbps
	}
	ser := sim.Time(float64(pkt.WireLen()) * 8 / rate)
	h := n.getHop()
	h.stage, h.pkt, h.port = hopDrain, pkt, p
	n.eng.PostActionAfter(ser, h)
}
