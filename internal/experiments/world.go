// Package experiments reproduces the paper's evaluation (§5) on the
// simulated substrate, organized around a named experiment registry.
//
// Every table/figure is defined once, in register.go, as an Experiment
// — a named sweep decomposed into independent Points, where one Point
// is one (configuration, seed) cell that builds its own World. The
// parallel runner (runner.go) fans any subset of points out across a
// bounded worker pool with deterministic, canonically ordered results
// and per-point wall-clock timing; artifact.go serializes a run to the
// machine-readable JSON consumed by the BENCH_*.json trajectory.
//
// Three layers of access, outermost first:
//
//   - cmd/smtexp: list/run experiments by name, per-point rows, JSON
//     artifacts, lineup selection via -stacks.
//   - Registry API: Lookup/Names/All, Run/RunPoints/RunNamed with
//     RunOptions (worker count, stack lineup), and the stack registry
//     (stack.go): StackSpec, BuildFabric, DefaultLineup.
//   - Typed measurement functions (MeasureRTT, MeasureThroughput,
//     MeasureRedis, MeasureIncast, ...) that measure one cell and return
//     a plain row struct. Each registry point calls exactly one of them;
//     the shape tests and the bench module call them directly.
//
// The systems under test are composed, not hardwired: a StackSpec names
// a transport × record-layer cell and BuildFabric assembles it from the
// per-layer constructors in this file (tcpFabricFamily, homaFabric,
// smtFabric) — see stack.go for the registry and the buildable matrix.
//
// Worlds come in two shapes. NewWorld builds the paper's two-host
// back-to-back testbed; NewFabricWorld builds an N-host fabric from a
// netsim.Topology (hosts behind an output-queued switch), which the
// incast and multiclient experiments use. The two-host world is exactly
// the N=2 switchless fabric, so every §5 experiment runs unchanged on
// the generalized substrate.
package experiments

import (
	"fmt"

	"smt/internal/audit"
	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/wire"
)

// Testbed constants from §5: one NUMA node per host, 12 app threads + 4
// stack (softirq) threads per side, 100 GbE links. The client/server
// addresses follow the wire.HostAddr convention (host i at address i+1).
const (
	ClientAddr  = 1
	ServerAddr  = 2
	ServerPort  = 7000
	AppThreads  = 12
	StackCores  = 4
	serverPortK = 7443 // TCP-family server port
)

// World is one testbed instance: N hosts on a shared fabric. Hosts[0]
// and Hosts[1] carry the Client/Server aliases of the two-host figures;
// fabric experiments treat Hosts[1] as the server and every other host
// as a client (so the 1-client fabric is literally the two-host world).
type World struct {
	Eng  *sim.Engine
	Net  *netsim.Network
	CM   *cost.Model
	Topo netsim.Topology

	Hosts  []*cpusim.Host
	Client *cpusim.Host // Hosts[0]
	Server *cpusim.Host // Hosts[1]

	// Audit is the wire-compliance auditor tapping Net, nil unless
	// EnableAudit or SetAuditAll attached one. Purely an observer:
	// artifacts are byte-identical with or without it.
	Audit *audit.Auditor

	// Check, when non-nil, observes every RPC payload the fabric
	// wirings' application layer accepts (client and server sides,
	// before decoding). The chaos battery uses it to prove fail-closed
	// behavior: a stack that lets the network's tampering through shows
	// up here as a corrupted payload reaching the application.
	Check func(m []byte)
}

// checkDelivery feeds an accepted application payload to the Check hook.
func (w *World) checkDelivery(m []byte) {
	if w.Check != nil {
		w.Check(m)
	}
}

// NewWorld builds a fresh two-host back-to-back testbed (the paper's §5
// configuration) with a deterministic seed.
func NewWorld(seed int64) *World {
	return NewFabricWorld(seed, netsim.Topology{Hosts: 2})
}

// NewFabricWorld builds a testbed of topo.Hosts hosts wired by topo
// (ideal back-to-back links, or an output-queued switch when topo.Switch
// is set). Host i sits at wire.HostAddr(i) with the standard core
// counts.
func NewFabricWorld(seed int64, topo netsim.Topology) *World {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := topo.Build(eng, cm)
	w := &World{Eng: eng, Net: net, CM: cm, Topo: topo}
	for i := 0; i < topo.Hosts; i++ {
		w.Hosts = append(w.Hosts, cpusim.NewHost(eng, cm, net, wire.HostAddr(i), StackCores, AppThreads))
	}
	w.Client, w.Server = w.Hosts[0], w.Hosts[1]
	maybeAuditWorld(w)
	return w
}

// ClientHosts returns the fabric clients: every host except the server
// (Hosts[1]), ordered Hosts[0], Hosts[2], Hosts[3], ... so that the
// one-client fabric uses exactly the two-host world's client.
func (w *World) ClientHosts() []*cpusim.Host {
	clients := make([]*cpusim.Host, 0, len(w.Hosts)-1)
	clients = append(clients, w.Hosts[0])
	clients = append(clients, w.Hosts[2:]...)
	return clients
}

// System is one line in the evaluation figures: a name plus a setup
// function that wires an echo service and returns the request issuer.
type System struct {
	Name string
	// Setup builds server+client endpoints for `streams` concurrent RPC
	// streams under the given MTU. done is called on the client when a
	// response arrives; issue sends a request on a stream. Setup may run
	// the engine to pre-establish connections (as the paper's harness
	// pre-establishes before measuring). A wiring failure (key material,
	// session registration) is an error return, never a panic.
	Setup func(w *World, streams, mtu int, noTSO bool, done func(reqID uint64)) (issue func(stream int, reqID uint64, size, respSize int), err error)
}

// FabricConfig parameterizes a FabricSystem's wiring.
type FabricConfig struct {
	// StreamsPerClient is the number of concurrent RPC streams each
	// client host drives.
	StreamsPerClient int
	// MTU is the wire MTU (0 = DefaultMTU).
	MTU int
	// NoTSO makes the stack cut packets in software (Fig. 11 ablation).
	NoTSO bool
	// Dialed establishes encrypted sessions by running a live 1-RTT
	// key exchange over the fabric (dial.go) instead of installing
	// pre-paired mirrored keys (core.PairSessions / ktls.ConnKeys).
	// Off by default: the figure experiments measure steady state, so
	// they pre-pair, exactly as the paper's harness pre-establishes
	// connections before measuring.
	Dialed bool
}

// FabricSystem is a System generalized to N hosts: Setup wires one echo
// server and one client endpoint per host in clients, and returns an
// issuer addressed by (client, stream). The two-host System of the §5
// figures is the clients=[Hosts[0]] special case (see System()).
// BuildFabric (stack.go) composes one from a StackSpec.
type FabricSystem struct {
	Name string
	// Setup wires the echo service on server and a client endpoint on
	// every host in clients. done is invoked on the issuing client's
	// host when that client's request reqID completes. Wiring failures
	// are error returns, never panics.
	Setup func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(client int, reqID uint64)) (issue func(client, stream int, reqID uint64, size, respSize int), err error)
}

// System adapts the fabric wiring to the two-host harness: client =
// Hosts[0], server = Hosts[1]. Every §5 figure runs through this
// adapter, so the two-host numbers come from the same code path as the
// fabric experiments.
func (f FabricSystem) System() System {
	return System{Name: f.Name, Setup: func(w *World, streams, mtu int, noTSO bool, done func(uint64)) (func(int, uint64, int, int), error) {
		issue, err := f.Setup(w, []*cpusim.Host{w.Client}, w.Server,
			FabricConfig{StreamsPerClient: streams, MTU: mtu, NoTSO: noTSO},
			func(_ int, reqID uint64) { done(reqID) })
		if err != nil {
			return nil, err
		}
		return func(stream int, reqID uint64, size, respSize int) {
			issue(0, stream, reqID, size, respSize)
		}, nil
	}}
}

// serverThreads is the app-thread pool message transports deliver into.
func serverThreads() []int {
	threads := make([]int, AppThreads)
	for i := range threads {
		threads[i] = i
	}
	return threads
}

// --- message-transport wiring (homa × {plain, smt-sw, smt-hw}) ---

// homaFabric is the plain message-transport constructor: Homa with no
// record layer.
func homaFabric(name string) FabricSystem {
	return FabricSystem{Name: name, Setup: func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		// encBuf is the world's RPC-payload scratch: the transports copy
		// the payload synchronously in Send, and the whole world runs on
		// one goroutine, so one buffer serves every send.
		var encBuf []byte
		srv := homa.NewSocket(server, homa.Config{Port: ServerPort, MTU: cfg.MTU, NoTSO: cfg.NoTSO, AppThreads: serverThreads()}, nil)
		srv.OnMessage(func(d homa.Delivery) {
			w.checkDelivery(d.Payload)
			id, respSize, err := rpc.Decode(d.Payload)
			if err != nil {
				return
			}
			server.RunApp(d.AppThread, w.CM.AppLogic, func() {
				encBuf = rpc.AppendEncode(encBuf, id, 0, int(respSize))
				srv.Send(d.Src, d.SrcPort, encBuf, d.AppThread)
			})
		})
		clis := make([]*homa.Socket, len(clients))
		for ci, ch := range clients {
			ci := ci
			cli := homa.NewSocket(ch, homa.Config{MTU: cfg.MTU, NoTSO: cfg.NoTSO}, nil)
			cli.OnMessage(func(d homa.Delivery) {
				w.checkDelivery(d.Payload)
				if id, _, err := rpc.Decode(d.Payload); err == nil {
					done(ci, id)
				}
			})
			clis[ci] = cli
		}
		return func(client, stream int, reqID uint64, size, respSize int) {
			encBuf = rpc.AppendEncode(encBuf, reqID, uint32(respSize), size)
			clis[client].Send(server.Addr, ServerPort, encBuf, stream%AppThreads)
		}, nil
	}}
}

// smtFabric is the transport-integrated record constructor: the homa
// transport with SMT record protection (software crypto, or NIC offload
// on transmit when hw is set).
func smtFabric(name string, hw bool) FabricSystem {
	return FabricSystem{Name: name, Setup: func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		var encBuf []byte // world-scoped RPC scratch (see homaFabric)
		srv := core.NewSocket(server, core.Config{
			Transport: homa.Config{Port: ServerPort, MTU: cfg.MTU, NoTSO: cfg.NoTSO, AppThreads: serverThreads()},
			HWOffload: hw,
		})
		clis := make([]*core.Socket, len(clients))
		for ci, ch := range clients {
			ci := ci
			cli := core.NewSocket(ch, core.Config{
				Transport: homa.Config{MTU: cfg.MTU, NoTSO: cfg.NoTSO},
				HWOffload: hw,
			})
			// Each client pair gets its own session keys, as one TLS
			// handshake per flow 5-tuple would produce (§4.2). Dialed
			// worlds derive them from a live exchange instead (below).
			if !cfg.Dialed {
				if err := core.PairSessions(cli, cli.Port(), srv, ServerPort, byte(11+ci)); err != nil {
					return nil, fmt.Errorf("%s: pair sessions for client %d: %w", name, ci, err)
				}
			}
			cli.OnMessage(func(d homa.Delivery) {
				w.checkDelivery(d.Payload)
				if id, _, err := rpc.Decode(d.Payload); err == nil {
					done(ci, id)
				}
			})
			clis[ci] = cli
		}
		if cfg.Dialed {
			if err := dialSMTSessions(w, name, srv, server, clis, clients, cfg.MTU); err != nil {
				return nil, err
			}
		}
		srv.OnMessage(func(d homa.Delivery) {
			w.checkDelivery(d.Payload)
			id, respSize, err := rpc.Decode(d.Payload)
			if err != nil {
				return
			}
			server.RunApp(d.AppThread, w.CM.AppLogic, func() {
				encBuf = rpc.AppendEncode(encBuf, id, 0, int(respSize))
				srv.Send(d.Src, d.SrcPort, encBuf, d.AppThread)
			})
		})
		return func(client, stream int, reqID uint64, size, respSize int) {
			encBuf = rpc.AppendEncode(encBuf, reqID, uint32(respSize), size)
			clis[client].Send(server.Addr, ServerPort, encBuf, stream%AppThreads)
		}, nil
	}}
}

// --- bytestream wiring (tcp × any stream record layer) ---

// tcpFabricFamily wires one connection per (client, stream) through a
// stream record layer; nil rec means plain TCP. Each connection derives
// its own mirrored key material from the record layer's label and the
// client half of the 4-tuple (ktls.ConnKeys), so no two connections in
// any world share keys.
func tcpFabricFamily(name string, rec *streamRecord) FabricSystem {
	return FabricSystem{Name: name, Setup: func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		if rec != nil {
			if err := rec.validate(w.CM); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		var encBuf []byte // world-scoped RPC scratch (see homaFabric)
		tcfg := tcpsim.Config{MTU: cfg.MTU}
		nextThread := 0
		// Dialed worlds start every connection plaintext and install the
		// negotiated codec when the live exchange completes (below); the
		// default pre-paired path installs mirrored per-connection keys
		// at accept/dial time.
		dialed := cfg.Dialed && rec != nil
		var srvConns map[hsKey]*tcpsim.Conn
		if dialed {
			srvConns = make(map[hsKey]*tcpsim.Conn)
		}
		var srvCodec func(peerAddr uint32, peerPort uint16) tcpsim.Codec
		if rec != nil && !dialed {
			srvCodec = func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
				_, sk := ktls.ConnKeys(rec.label, peerAddr, peerPort)
				return rec.mustCodec(w.CM, sk)
			}
		}
		tcpsim.Listen(server, serverPortK, tcfg, srvCodec, func() int {
			t := nextThread
			nextThread = (nextThread + 1) % AppThreads
			return t
		}, func(c *tcpsim.Conn) {
			if dialed {
				srvConns[hsKey{c.PeerAddr(), c.PeerPort()}] = c
			}
			c.OnMessage(func(m []byte) {
				w.checkDelivery(m)
				id, respSize, err := rpc.Decode(m)
				if err != nil {
					return
				}
				server.RunApp(c.AppThread(), w.CM.AppLogic, func() {
					encBuf = rpc.AppendEncode(encBuf, id, 0, int(respSize))
					c.SendMessage(encBuf)
				})
			})
		})
		conns := make([][]*tcpsim.Conn, len(clients))
		for ci, ch := range clients {
			ci := ci
			conns[ci] = make([]*tcpsim.Conn, cfg.StreamsPerClient)
			for i := 0; i < cfg.StreamsPerClient; i++ {
				var cliCodec func(localPort uint16) tcpsim.Codec
				if rec != nil && !dialed {
					addr := ch.Addr
					cliCodec = func(localPort uint16) tcpsim.Codec {
						ck, _ := ktls.ConnKeys(rec.label, addr, localPort)
						return rec.mustCodec(w.CM, ck)
					}
				}
				c := tcpsim.Dial(ch, i%AppThreads, tcfg, cliCodec, server.Addr, serverPortK, nil)
				c.OnMessage(func(m []byte) {
					w.checkDelivery(m)
					if id, _, err := rpc.Decode(m); err == nil {
						done(ci, id)
					}
				})
				conns[ci][i] = c
			}
		}
		// Pre-establish all connections before measurement.
		w.Eng.RunUntil(w.Eng.Now() + 5*sim.Millisecond)
		if dialed {
			if err := dialTCPSessions(w, name, rec, conns, srvConns, clients, server); err != nil {
				return nil, err
			}
		}
		return func(client, stream int, reqID uint64, size, respSize int) {
			encBuf = rpc.AppendEncode(encBuf, reqID, uint32(respSize), size)
			conns[client][stream].SendMessage(encBuf)
		}, nil
	}}
}

// mtuOrDefault resolves an MTU argument.
func mtuOrDefault(mtu int) int {
	if mtu == 0 {
		return wire.DefaultMTU
	}
	return mtu
}
