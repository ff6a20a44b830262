// Package smt is the public facade of the SMT reproduction: Secure
// Message Transport — TLS-based encryption integrated into a Homa-style
// message transport for datacenter RPCs ("Designing Transport-Level
// Encryption for Datacenter Networks", SIGCOMM 2025).
//
// The facade re-exports the pieces a user composes:
//
//	world := smt.NewWorld(seed)                      // two-host testbed
//	srv := smt.NewSocket(world.Server, smt.Config{...})
//	cli := smt.NewSocket(world.Client, smt.Config{...})
//	smt.PairSessions(cli, cli.Port(), srv, port, 1)  // or run a handshake
//	cli.Send(dstAddr, dstPort, payload, thread)
//
// For N-host scenarios, build a fabric instead: hosts behind an
// output-queued switch with per-port capacity and a shared buffer:
//
//	topo := smt.Topology{Hosts: 9, Switch: &smt.SwitchConfig{BufferBytes: 256 << 10}}
//	world := smt.NewFabricWorld(seed, topo)          // Hosts[0..8]
//
// The systems under test are composable: a StackSpec crosses a
// transport (tcp, homa) with a record layer (plain, tls-user, ktls-sw,
// ktls-hw, tcpls, smt-sw, smt-hw), and BuildFabric assembles the
// runnable stack or rejects an inexpressible cell with a descriptive
// error:
//
//	spec, _ := smt.LookupStack("TCPLS")
//	sys, err := smt.BuildFabric(spec)                // runs on any World
//
// Everything underneath lives in internal/: the discrete-event engine,
// the host/NIC/network models, the Homa engine, the TCP/kTLS/TCPLS
// baselines, and one experiment runner per table/figure of the paper
// (plus the fabric-scale incast, multiclient and loadsweep
// experiments).
package smt

import (
	"smt/internal/core"
	"smt/internal/cpusim"
	"smt/internal/experiments"
	"smt/internal/homa"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/workload"
)

// Re-exported core types: see internal/core for full documentation.
type (
	// Config configures an SMT socket (transport + encryption policy).
	Config = core.Config
	// Socket is an SMT endpoint.
	Socket = core.Socket
	// SessionKeys carries per-direction AEAD material (§4.2).
	SessionKeys = core.SessionKeys
	// Codec is one peer session's encryption state.
	Codec = core.Codec
	// TransportConfig carries the Homa-level knobs.
	TransportConfig = homa.Config
	// Delivery is a verified incoming message. Its Payload is borrowed
	// until the OnMessage callback returns; copy the bytes to keep them.
	Delivery = homa.Delivery
	// BitAllocation is the composite sequence-number split (§4.4.1).
	BitAllocation = tlsrec.BitAllocation
	// World is the simulated testbed: N hosts on a shared fabric, with
	// the two-host back-to-back configuration as the default.
	World = experiments.World
	// Topology describes a fabric: host count plus optional switch.
	Topology = netsim.Topology
	// SwitchConfig models the output-queued switch of an N-host fabric.
	SwitchConfig = netsim.SwitchConfig
	// Engine is the deterministic discrete-event executor a World runs on.
	Engine = sim.Engine
	// Dist is a message-size distribution for open-loop load generation.
	Dist = workload.Dist
	// OpenLoop drives deterministic Poisson arrivals at a fixed offered
	// rate and records latency and slowdown (the loadsweep methodology).
	OpenLoop = workload.OpenLoop
	// StackSpec names one transport × record-layer cell of the design
	// space (Table 1); the stack catalogue names the runnable ones.
	StackSpec = experiments.StackSpec
	// Transport selects the byte/message-moving layer of a StackSpec.
	Transport = experiments.Transport
	// RecordLayer selects the encryption placement of a StackSpec.
	RecordLayer = experiments.RecordLayer
	// FabricSystem is a composed stack wired for N-host Worlds.
	FabricSystem = experiments.FabricSystem
)

// BuildFabric composes a runnable FabricSystem from a spec, or returns
// a descriptive error for combinations the decomposition cannot express
// (e.g. SMT records over TCP).
func BuildFabric(spec StackSpec) (FabricSystem, error) { return experiments.BuildFabric(spec) }

// LookupStack resolves a named stack (case-insensitive):
// TCP, kTLS-sw, kTLS-hw, TLS, TCPLS, Homa, SMT-sw, SMT-hw.
func LookupStack(name string) (StackSpec, bool) { return experiments.LookupStack(name) }

// Stacks returns every named stack spec in listing order.
func Stacks() []StackSpec { return experiments.Stacks() }

// DefaultLineup is the six-stack lineup of the paper's §5 figures.
func DefaultLineup() []StackSpec { return experiments.DefaultLineup() }

// WebSearchMix returns the heavy-tailed message-size mix the loadsweep
// experiment drives (mostly small messages; the largest carry most of
// the bytes).
func WebSearchMix() Dist { return workload.WebSearch() }

// NewOpenLoop creates an open-loop generator on a World's engine:
// Poisson arrivals at rate requests/second drawn from dist, spread
// round-robin over clients × streams via issue. See
// internal/workload.OpenLoop for the measurement surface.
func NewOpenLoop(eng *Engine, dist Dist, clients, streams int, rate float64,
	issue func(client, stream int, reqID uint64, size int)) (*OpenLoop, error) {
	return workload.NewOpenLoop(eng, dist, clients, streams, rate, issue)
}

// DefaultAllocation is the paper's 48-bit message ID + 16-bit record
// index split.
var DefaultAllocation = tlsrec.DefaultAllocation

// NewWorld builds a deterministic two-host testbed (12 app threads and 4
// stack cores per host on a 100 GbE back-to-back link).
func NewWorld(seed int64) *World { return experiments.NewWorld(seed) }

// NewFabricWorld builds a deterministic N-host testbed wired by topo;
// host i sits at address i+1 (wire.HostAddr). The two-host testbed is
// the Topology{Hosts: 2} special case.
func NewFabricWorld(seed int64, topo Topology) *World {
	return experiments.NewFabricWorld(seed, topo)
}

// Host is one simulated machine (cores + NIC).
type Host = cpusim.Host

// NewSocket creates an SMT socket on a host of a World.
func NewSocket(host *Host, cfg Config) *Socket { return core.NewSocket(host, cfg) }

// PairSessions installs mirrored session keys on two sockets — the state
// a completed TLS 1.3 handshake produces (see internal/handshake for the
// real exchange).
func PairSessions(a *Socket, aPeerPort uint16, b *Socket, bPeerPort uint16, seed byte) error {
	return core.PairSessions(a, aPeerPort, b, bPeerPort, seed)
}
