package wire

import "fmt"

// Flow identifies a transport 5-tuple. An SMT session is identified by its
// flow (§4.2); host stacks steer packets to cores by hashing it.
type Flow struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// String formats the flow as proto src -> dst.
func (f Flow) String() string {
	return fmt.Sprintf("proto=%d %d:%d->%d:%d", f.Proto, f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}

// FastHash returns a symmetric hash of the flow: a flow and its reverse
// hash identically, so both directions of a connection steer to the same
// core (the gopacket Flow.FastHash contract). This is what RSS-style
// 5-tuple steering uses, and is precisely why a TCP connection is pinned
// to one core while message-based transports can spread messages.
func (f Flow) FastHash() uint64 {
	// Combine the endpoints order-independently, then mix.
	a := uint64(f.SrcIP)<<16 | uint64(f.SrcPort)
	b := uint64(f.DstIP)<<16 | uint64(f.DstPort)
	if a > b {
		a, b = b, a
	}
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f ^ uint64(f.Proto)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Packet is the unit the network simulator moves around: decoded headers
// plus payload bytes. Headers are kept decoded to avoid re-parsing at
// every hop; WireLen sizes the wire image they stand for.
//
// Steady-state packets come from a PacketPool and own their payload
// storage (Payload aliases the packet's internal buffer, filled via
// SetPayload/CopyFrom). A producer may also bind Payload directly to
// memory it owns — a "borrowed" payload — but then it must guarantee
// that memory stays valid until the packet is consumed; the internal
// buffer is preserved across such borrows and restored by Reset.
type Packet struct {
	IP      IPv4Header
	Overlay OverlayHeader
	Payload []byte

	// Tampered marks a packet whose payload was mutated by fault
	// injection (netsim corruption). It is simulator metadata, not wire
	// bytes: receivers must detect tampering cryptographically, but the
	// audit tap uses the mark to tell injected faults from protocol bugs.
	Tampered bool

	// buf is the pool-owned payload storage; pool/pooled track freelist
	// membership (see PacketPool).
	buf    []byte
	pool   *PacketPool
	pooled bool
}

// Flow returns the packet's 5-tuple.
func (p *Packet) Flow() Flow {
	return Flow{
		SrcIP: p.IP.Src, DstIP: p.IP.Dst,
		SrcPort: p.Overlay.SrcPort, DstPort: p.Overlay.DstPort,
		Proto: p.IP.Protocol,
	}
}

// WireLen returns the packet's size on the wire in bytes.
func (p *Packet) WireLen() int {
	return IPv4HeaderLen + OverlayHeaderLen + len(p.Payload)
}

// Clone returns a deep copy of the packet (payload included). The copy is
// unpooled: it owns fresh memory and Release on it is a no-op.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP, Overlay: p.Overlay, Tampered: p.Tampered}
	q.Payload = append([]byte(nil), p.Payload...)
	return q
}

// Reset clears the packet for reuse: zero headers, empty payload aliasing
// the packet's own storage.
func (p *Packet) Reset() {
	p.IP = IPv4Header{}
	p.Overlay = OverlayHeader{}
	p.Tampered = false
	p.Payload = p.buf[:0]
}

// SetPayload copies b into the packet's own storage. This is the owning
// way to fill a pooled packet's payload; the copy decouples the packet's
// lifetime from the producer's buffer.
func (p *Packet) SetPayload(b []byte) {
	p.buf = append(p.buf[:0], b...)
	p.Payload = p.buf
}

// AppendPayload copies b onto the end of the packet's own payload: the
// gathering form of SetPayload, for a payload cut from several buffers.
// The payload must be the packet's own storage (as after Reset or
// SetPayload), never a borrowed one.
func (p *Packet) AppendPayload(b []byte) {
	p.buf = append(p.buf[:len(p.Payload)], b...)
	p.Payload = p.buf
}

// CopyFrom makes p a deep copy of src using p's own storage (the pooled
// counterpart of Clone).
func (p *Packet) CopyFrom(src *Packet) {
	p.IP = src.IP
	p.Overlay = src.Overlay
	p.Tampered = src.Tampered
	p.SetPayload(src.Payload)
}

// Release returns the packet to the pool it came from; on an unpooled
// packet it is a no-op. Releasing the same packet twice panics — a
// double release means two owners, which would corrupt the pool.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// PacketPool is a free list of Packets. It is not safe for concurrent
// use: one pool belongs to one simulated world (single goroutine), like
// the engine it feeds. The zero value is ready to use.
type PacketPool struct {
	free []*Packet
	// outstanding counts packets handed out by Get and not yet Released.
	outstanding int
}

// Get returns a Reset packet owned by the caller. Ownership transfers
// along the data path (producer → NIC → network → receiving host); the
// final consumer calls Release.
func (pp *PacketPool) Get() *Packet {
	var p *Packet
	if n := len(pp.free); n > 0 {
		p = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.pooled = false
	} else {
		//smt:coldpath -- packet-pool refill; steady state reuses released packets
		p = &Packet{pool: pp}
	}
	pp.outstanding++
	p.Reset()
	return p
}

func (pp *PacketPool) put(p *Packet) {
	if p.pooled {
		//smt:allow panic -- double release poisons the pool (two owners of one buffer); the leak counters cannot catch it later
		panic("wire: packet released twice")
	}
	p.pooled = true
	pp.outstanding--
	pp.free = append(pp.free, p)
}

// OutstandingPackets reports how many pooled packets are currently in
// flight (taken by Get, not yet Released). A quiesced world must report
// zero: a positive count at quiescence means some drop or consumption
// path lost a packet without releasing it.
func (pp *PacketPool) OutstandingPackets() int { return pp.outstanding }
