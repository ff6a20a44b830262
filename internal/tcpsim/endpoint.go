package tcpsim

import (
	"smt/internal/cpusim"
	"smt/internal/idmap"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// connKey identifies a peer endpoint: its (addr, port) packed into one
// word, addr<<16 | port, the key of the endpoint's connection table.
// Keys sort in (addr, port) order.
type connKey uint64

func makeConnKey(addr uint32, port uint16) connKey {
	return connKey(addr)<<16 | connKey(port)
}

// Endpoint demultiplexes TCP packets arriving at one (host, port) to
// connections, implementing cpusim.Handler. A server endpoint accepts new
// connections; a client endpoint fronts a single dialed connection.
type Endpoint struct {
	host     *cpusim.Host
	port     uint16
	cfg      Config
	conns    idmap.Map[*Conn] // by connKey
	onAccept func(*Conn)
	newCodec func(peerAddr uint32, peerPort uint16) Codec
	pickThr  func() int
}

// Listen binds a server endpoint on host:port. newCodec builds each
// accepted connection's codec (TLS state is per connection) and receives
// the dialing peer's (address, ephemeral port) so key material can be
// derived per connection rather than shared; pickThread assigns the app
// thread that owns the connection (nil = least loaded at accept time).
func Listen(host *cpusim.Host, port uint16, cfg Config, newCodec func(peerAddr uint32, peerPort uint16) Codec, pickThread func() int, onAccept func(*Conn)) *Endpoint {
	cfg = withDefaults(cfg)
	if newCodec == nil {
		newCodec = func(uint32, uint16) Codec { return &PlainCodec{} }
	}
	e := &Endpoint{
		host: host, port: port, cfg: cfg, onAccept: onAccept,
		newCodec: newCodec, pickThr: pickThread,
	}
	host.Bind(wire.ProtoTCP, port, e)
	return e
}

// Dial opens a connection from host (owned by appThread) to dst. newCodec
// (nil = plaintext) builds the connection's codec and receives the local
// ephemeral port — the client half of the 4-tuple both ends can derive
// per-connection key material from. The established callback fires when
// the SYN/SYN-ACK exchange completes.
func Dial(host *cpusim.Host, appThread int, cfg Config, newCodec func(localPort uint16) Codec, dstAddr uint32, dstPort uint16, established func(*Conn)) *Conn {
	cfg = withDefaults(cfg)
	local := host.AllocPort()
	var codec Codec
	if newCodec == nil {
		codec = &PlainCodec{}
	} else if codec = newCodec(local); codec == nil {
		// A non-nil factory returning nil is a wiring bug; running the
		// connection in plaintext would silently mislabel measurements.
		//smt:allow panic -- see above: fail loudly rather than mislabel an encrypted stack as plaintext
		panic("tcpsim: Dial codec factory returned nil")
	}
	conn := newConn(host, cfg, codec, local, dstAddr, dstPort, appThread)
	e := &Endpoint{host: host, port: local, cfg: cfg}
	e.conns.Put(uint64(makeConnKey(dstAddr, dstPort)), conn)
	host.Bind(wire.ProtoTCP, local, e)
	conn.established = established
	// SYN (charged as a syscall on the app thread).
	host.RunApp(appThread, host.CM.Syscall, func() {
		e.sendCtl(conn, 1) // SYN
	})
	return conn
}

func withDefaults(cfg Config) Config {
	if cfg.MTU == 0 {
		cfg.MTU = wire.DefaultMTU
	}
	return cfg
}

// newConn builds the per-connection state at establishment; it runs
// once per dialed connection, never per message.
//
//smt:coldpath connection establishment
func newConn(host *cpusim.Host, cfg Config, codec Codec, localPort uint16, peerAddr uint32, peerPort uint16, appThread int) *Conn {
	c := &Conn{
		host: host, cfg: cfg, codec: codec,
		localPort: localPort, peerAddr: peerAddr, peerPort: peerPort,
		appThread: appThread,
		queue:     host.AppQueue(appThread),
		// The NIC crypto context must be unique per connection on this
		// NIC. Ephemeral port counters are per-host, so (localPort,
		// peerPort) alone collides when two hosts dial the same server;
		// the peer address disambiguates (the full 4-tuple).
		ctxID: uint64(peerAddr)<<32 | uint64(localPort)<<16 | uint64(peerPort),
	}
	f := wire.Flow{SrcIP: host.Addr, DstIP: peerAddr, SrcPort: localPort, DstPort: peerPort, Proto: wire.ProtoTCP}
	c.core = int(f.FastHash() % uint64(len(host.Softirq)))
	host.StreamConns++
	return c
}

// sendCtl emits a SYN (kind 1) or SYN-ACK (kind 2); it runs only while
// a connection is being established.
//
//smt:coldpath handshake control
func (e *Endpoint) sendCtl(c *Conn, kind uint32) {
	pkt := e.host.NIC.AcquirePacket()
	pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoTCP, Src: e.host.Addr, Dst: c.peerAddr}
	pkt.Overlay = wire.OverlayHeader{
		SrcPort: c.localPort, DstPort: c.peerPort,
		Type: wire.TypeHandshake, Aux: kind,
	}
	e.host.NIC.SendSegment(e.host.SoftirqQueue(c.core), &nicsim.TxSegment{Pkt: pkt, MTU: e.cfg.MTU, NoTSO: true})
}

// SteerCore implements cpusim.Handler: RSS pins the 5-tuple to a core.
func (e *Endpoint) SteerCore(pkt *wire.Packet, ncores int) int {
	return int(pkt.Flow().FastHash() % uint64(ncores))
}

// RxCost implements cpusim.Handler: NAPI poll cost once per idle gap on
// the endpoint, then GRO semantics per packet — a packet merging into the
// previous packet's aggregate (same connection, back to back) costs only
// the merge; a new flow's packet starts a fresh protocol pass.
func (e *Endpoint) RxCost(pkt *wire.Packet) sim.Time {
	cm := e.host.CM
	switch pkt.Overlay.Type {
	case wire.TypeAck:
		return cm.TCPAck
	case wire.TypeHandshake:
		return cm.TCPRxBatch
	}
	now := e.host.Eng.Now()
	var cost sim.Time
	if now-e.host.GROLastRx > burstGap {
		cost += cm.TCPRxBatch // NAPI wakeup after idle
	}
	fh := pkt.Flow().FastHash()
	if fh == e.host.GROLastFlow && now-e.host.GROLastRx <= burstGap {
		cost += cm.TCPGROMerge
	} else {
		cost += cm.TCPRxPerPacket
	}
	e.host.GROLastFlow = fh
	e.host.GROLastRx = now
	return cost
}

// HandlePacket implements cpusim.Handler. The packet is fully consumed
// here (payload bytes are copied into receive buffers synchronously), so
// it returns to the pool on exit.
func (e *Endpoint) HandlePacket(pkt *wire.Packet, core int) {
	defer pkt.Release()
	k := uint64(makeConnKey(pkt.IP.Src, pkt.Overlay.SrcPort))
	c, _ := e.conns.Get(k)
	switch pkt.Overlay.Type {
	case wire.TypeHandshake:
		switch pkt.Overlay.Aux {
		case 1: // SYN at listener
			if c != nil || e.onAccept == nil {
				return
			}
			thread := 0
			if e.pickThr != nil {
				thread = e.pickThr()
			} else {
				thread = e.host.LeastLoadedApp()
			}
			codec := e.newCodec(pkt.IP.Src, pkt.Overlay.SrcPort)
			if codec == nil {
				// Mirror Dial's contract: a factory that returns nil is a
				// wiring bug, not a plaintext request.
				//smt:allow panic -- see above: fail loudly rather than mislabel an encrypted stack as plaintext
				panic("tcpsim: Listen codec factory returned nil")
			}
			c = newConn(e.host, e.cfg, codec, e.port, pkt.IP.Src, pkt.Overlay.SrcPort, thread)
			c.core = core
			e.conns.Put(k, c)
			e.sendCtl(c, 2)
			if e.onAccept != nil {
				e.onAccept(c)
			}
		case 2: // SYN-ACK at client
			if c != nil && c.established != nil {
				cb := c.established
				c.established = nil
				cb(c)
			}
		case 3: // handshake flight (key exchange over the established conn)
			if c != nil && c.onHandshake != nil {
				c.onHandshake(pkt.Payload)
			}
		}
	case wire.TypeData:
		if c != nil {
			c.handleData(pkt)
		}
	case wire.TypeAck:
		if c != nil {
			c.handleAck(pkt.Overlay.Aux)
		}
	}
}
