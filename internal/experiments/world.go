// Package experiments reproduces the paper's evaluation (§5) on the
// simulated substrate, organized around a named experiment registry.
//
// Every table/figure is defined once, in register.go, as an Experiment
// — a named sweep decomposed into independent Points, where one Point
// is one (configuration, seed) cell that builds its own World. The
// parallel runner (runner.go) fans any subset of points out across a
// bounded worker pool with deterministic, canonically ordered results
// and per-point wall-clock timing; artifact.go serializes a run to
// machine-readable JSON (smtexp -json).
//
// Three layers of access, outermost first:
//
//   - cmd/smtexp: list/run experiments by name, per-point rows, JSON
//     artifacts, lineup selection via -stacks.
//   - Registry API: Lookup/Names/All, Run/RunPoints/RunNamed with
//     RunOptions (worker count, stack lineup), and the stack catalogue
//     (stack.go): StackSpec, BuildFabric, DefaultLineup.
//   - Typed measurement functions (MeasureRTT, MeasureThroughput,
//     MeasureRedis, MeasureIncast, ...) that measure one cell and return
//     a plain row struct. Each registry point calls exactly one of them;
//     the shape tests and the bench module call them directly.
//
// The systems under test are composed, not hardwired: a StackSpec names
// a transport × record-layer cell, resolve (stack.go) decides which
// sockets and codecs it is built from, and BuildFabric runs the echo
// service in this file on the wiring's listen and connect — see
// stack.go for the registry and the buildable matrix.
//
// Worlds come in two shapes. NewWorld builds the paper's two-host
// back-to-back testbed; NewFabricWorld builds an N-host fabric from a
// netsim.Topology (hosts behind an output-queued switch), which the
// incast and multiclient experiments use. The two-host world is exactly
// the N=2 switchless fabric, so every §5 experiment runs unchanged on
// the generalized substrate.
package experiments

import (
	"smt/internal/audit"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
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
	// EnableAudit attached one: MeasureChaos always does, and so does
	// every world a point of an audited run (RunOptions.Audit) builds.
	// Purely an observer: artifacts are byte-identical with or without
	// it.
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

// echoServer is the service BuildFabric wires on the stack's listen
// (stack.go). Each accepted request charges AppLogic on the app thread
// it was delivered to; the charge's completion, a pooled echoReply,
// encodes and sends the response.
type echoServer struct {
	w    *World
	host *cpusim.Host
	// encBuf is the world's RPC-payload scratch: the transports read the
	// payload synchronously in Send (encoding or copying it) and never
	// write it, and the whole world runs on one goroutine, so one buffer
	// serves every send, the clients' too, and the body pattern written
	// when it grew stays in place (see rpc.AppendEncode).
	encBuf []byte
	free   []*echoReply
}

// echoReply is one response waiting for its AppLogic charge.
type echoReply struct {
	e        *echoServer
	id       uint64
	respSize int
	thread   int
	to       replyTo
}

// serve answers the request delivered on thread.
func (e *echoServer) serve(req []byte, thread int, to replyTo) {
	id, respSize, err := rpc.Decode(req)
	if err != nil {
		return
	}
	var r *echoReply
	if l := len(e.free); l > 0 {
		r = e.free[l-1]
		e.free = e.free[:l-1]
	} else {
		//smt:coldpath -- echoReply free-list refill; steady state reuses pooled replies
		r = &echoReply{e: e}
	}
	r.id, r.respSize, r.thread, r.to = id, int(respSize), thread, to
	e.host.App[thread%len(e.host.App)].AcquireAction(e.w.CM.AppLogic, r)
}

// Run implements sim.Action.
func (r *echoReply) Run() {
	e := r.e
	e.encBuf = rpc.AppendEncode(e.encBuf, r.id, 0, r.respSize)
	r.to.send(e.encBuf, r.thread)
	r.to = replyTo{}
	e.free = append(e.free, r)
}

// mtuOrDefault resolves an MTU argument.
func mtuOrDefault(mtu int) int {
	if mtu == 0 {
		return wire.DefaultMTU
	}
	return mtu
}
