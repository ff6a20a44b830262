package nicsim

import (
	"testing"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// refPkt is one cut packet as the reference arbiter sees it.
type refPkt struct {
	seg     uint64 // MsgID of its segment
	idx     uint16 // IPID: its index within the segment
	q       int
	wireLen int
}

// refArbiter is the reference the NIC's ready-mask arbiter is checked
// against: per-queue FIFOs and a scan-based round robin that tests
// every queue from rrNext, with a modulo per step.
type refArbiter struct {
	cm     *cost.Model
	fifos  [][]refPkt
	rrNext int
	busy   bool
	cur    refPkt   // the packet on the wire
	curEnd sim.Time // when its last bit leaves
}

// kick puts the next packet on an idle wire at now.
func (r *refArbiter) kick(now sim.Time) {
	if r.busy {
		return
	}
	for i := 0; i < len(r.fifos); i++ {
		q := (r.rrNext + i) % len(r.fifos)
		if len(r.fifos[q]) == 0 {
			continue
		}
		r.cur, r.fifos[q] = r.fifos[q][0], r.fifos[q][1:]
		r.rrNext = q + 1
		r.busy = true
		r.curEnd = now + r.cm.Serialize(r.cur.wireLen)
		return
	}
}

// arbiterCheck observes every departure through the network tap, which
// fires in the wire event just before the NIC's own kickWire, and
// compares it with the reference's packet on the wire.
type arbiterCheck struct {
	t        *testing.T
	eng      *sim.Engine
	ref      *refArbiter
	segQueue map[uint64]int
	departed int
}

func (c *arbiterCheck) PacketSent(pkt *wire.Packet) {
	got := refPkt{seg: pkt.Overlay.MsgID, idx: pkt.IP.ID, q: c.segQueue[pkt.Overlay.MsgID], wireLen: pkt.WireLen()}
	if !c.ref.busy {
		c.t.Fatalf("departure %d at %v: %+v left while the reference wire was idle", c.departed, c.eng.Now(), got)
	}
	if got != c.ref.cur || c.eng.Now() != c.ref.curEnd {
		c.t.Fatalf("departure %d: %+v at %v, reference %+v at %v", c.departed, got, c.eng.Now(), c.ref.cur, c.ref.curEnd)
	}
	c.departed++
	c.ref.busy = false
	c.ref.kick(c.eng.Now())
}

func (c *arbiterCheck) PacketDropped(*wire.Packet, netsim.DropReason) {}
func (c *arbiterCheck) PacketDelivered(*wire.Packet, bool)            {}

// FuzzWireArbiter drives TSO segments of random sizes into random
// queues at random submit times, and requires every packet to leave in
// the order, from the queue and at the time the reference scan-based
// round robin gives. nq selects 1 to 64 queues; each three bytes of
// prog are one submission: queue, payload size in 48-byte steps (0 to
// 12,240 bytes, up to nine packets) and the gap before it in 8 ns steps
// (a 1,500-byte packet serializes in 120 ns, so short gaps submit while
// the wire is busy).
func FuzzWireArbiter(f *testing.F) {
	f.Add(uint8(0), []byte{0, 30, 0, 0, 1, 0, 0, 200, 255})                     // 1 queue
	f.Add(uint8(1), []byte{0, 90, 0, 1, 90, 0, 0, 1, 3, 1, 0, 0})               // 2 queues, busy wire
	f.Add(uint8(15), []byte{14, 1, 0, 15, 60, 40, 3, 60, 0, 15, 5, 0, 0, 0, 0}) // 16 queues, rrNext on the last queue
	f.Add(uint8(15), []byte{3, 200, 0, 9, 200, 0, 12, 200, 1, 3, 1, 0, 0, 0, 250})
	f.Add(uint8(63), []byte{63, 40, 0, 0, 40, 0, 63, 40, 0, 31, 2, 0, 62, 0, 0}) // 64 queues, wrap past the top bit
	f.Fuzz(func(t *testing.T, nq uint8, prog []byte) {
		const maxOps = 64
		nQueues := 1 + int(nq)%maxQueues
		eng := sim.NewEngine(1)
		cm := cost.Default()
		net := netsim.New(eng, cm)
		nic := New(eng, cm, net, 1, nQueues)
		net.Attach(2, func(p *wire.Packet) { p.Release() })
		ref := &refArbiter{cm: cm, fifos: make([][]refPkt, nQueues)}
		check := &arbiterCheck{t: t, eng: eng, ref: ref, segQueue: make(map[uint64]int)}
		net.SetTap(check)
		per := wire.DefaultMTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen
		scratch := make([]byte, 255*48)
		at, packets := sim.Time(0), 0
		for op := 0; op+3 <= len(prog) && op/3 < maxOps; op += 3 {
			q, size := int(prog[op])%nQueues, int(prog[op+1])*48
			at += sim.Time(prog[op+2]) * 8
			id := uint64(op/3 + 1)
			check.segQueue[id] = q
			var cut []refPkt
			for off := 0; ; off += per {
				n := min(per, size-off)
				cut = append(cut, refPkt{seg: id, idx: uint16(len(cut)), q: q, wireLen: wire.IPv4HeaderLen + wire.OverlayHeaderLen + n})
				if off+n == size {
					break
				}
			}
			packets += len(cut)
			// Release fires once the cut has queued every packet, and
			// nothing runs between the first packet's enqueue and it: the
			// arbiter's pick from queue q is the same either way.
			release := func() {
				ref.fifos[q] = append(ref.fifos[q], cut...)
				ref.kick(eng.Now())
			}
			eng.At(at, func() {
				pkt := nic.AcquirePacket()
				pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2}
				pkt.Overlay = wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgID: id, MsgLen: uint32(size)}
				pkt.Payload = scratch[:size]
				nic.SendSegment(q, &TxSegment{Pkt: pkt, MTU: wire.DefaultMTU, Release: release})
			})
		}
		eng.Run()
		if check.departed != packets || ref.busy || nic.ready != 0 || nic.wireBusy {
			t.Fatalf("after the run: %d of %d packets departed, reference busy %v, ready mask %#x, wire busy %v",
				check.departed, packets, ref.busy, nic.ready, nic.wireBusy)
		}
		if nic.Stats.TxPackets != uint64(packets) || net.OutstandingPackets() != 0 {
			t.Fatalf("TxPackets %d, want %d; %d packets outstanding", nic.Stats.TxPackets, packets, net.OutstandingPackets())
		}
	})
}

// TestQueueCountLimit pins the arbiter's width: one ready-mask bit per
// queue, so a NIC takes 1 to 64 queues and construction rejects the
// rest.
func TestQueueCountLimit(t *testing.T) {
	mk := func(n int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		eng := sim.NewEngine(1)
		cm := cost.Default()
		New(eng, cm, netsim.New(eng, cm), 1, n)
		return false
	}
	for _, n := range []int{1, maxQueues} {
		if mk(n) {
			t.Errorf("New with %d queues panicked", n)
		}
	}
	for _, n := range []int{0, maxQueues + 1} {
		if !mk(n) {
			t.Errorf("New with %d queues did not panic", n)
		}
	}
}
