package experiments

import (
	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/stats"
)

// This file holds the fabric-scale experiments the two-host paper
// testbed cannot express: incast (M clients fan in on one server
// through an output-queued switch port) and multiclient (aggregate
// throughput scaling as client hosts are added). Both run the six-
// system lineup of the §5 figures on N-host Worlds built from
// netsim.Topology, and decompose into independent (config, seed)
// points exactly like every other registry experiment.

// Fabric sweep grids.
var (
	// IncastClients sweeps the fan-in degree M (M clients → 1 server).
	IncastClients = []int{1, 3, 8}
	// IncastSizes sweeps the request payload pushed by each client.
	IncastSizes = []int{8192, 65536}
	// MulticlientCounts sweeps the number of client hosts.
	MulticlientCounts = []int{1, 2, 4, 8}
)

// Fixed fabric parameters.
const (
	// IncastStreams is the concurrent request streams per incast client:
	// enough fan-in to congest the server's switch port at high M
	// without modelling an open loop.
	IncastStreams = 4
	// IncastBufferBytes is the switch shared buffer for incast runs —
	// a shallow-buffered ToR slice, so deep fan-in tail-drops.
	IncastBufferBytes = 256 * 1024
	// MulticlientStreams is the concurrent streams per client host.
	MulticlientStreams = 32
	// MulticlientSize is the echo RPC payload for scaling runs.
	MulticlientSize = 1024
)

// IncastRow is one (system, clients, size) fan-in point.
type IncastRow struct {
	System  string
	Clients int
	Size    int
	// RPCsPerSec is the aggregate completion rate across all clients.
	RPCsPerSec float64
	// GoodputGbps is the aggregate request payload delivered per second.
	GoodputGbps float64
	MeanLatUs   float64
	P50LatUs    float64
	// P99LatUs is the tail — the incast headline number.
	P99LatUs float64
	// SwitchDrops counts shared-buffer tail drops at the switch.
	SwitchDrops uint64
	N           uint64
}

// incastTopology is the fabric incast runs use: M clients + 1 server
// behind a shallow-buffered output-queued switch.
func incastTopology(clients int) netsim.Topology {
	return netsim.Topology{
		Hosts:  clients + 1,
		Switch: &netsim.SwitchConfig{BufferBytes: IncastBufferBytes},
	}
}

// runFabricLoops drives one closed loop per client over an established
// fabric wiring and returns the merged latency histogram plus total
// post-warmup completions. Warm 5 ms, measure 25 ms (the fig7 window).
func runFabricLoops(w *World, loops []*rpc.ClosedLoop, streams int) (lat stats.Histogram, completed uint64, window sim.Time) {
	start := w.Eng.Now()
	warm := start + 5*sim.Millisecond
	stop := start + 30*sim.Millisecond
	for _, cl := range loops {
		cl.Start(streams, warm, stop)
	}
	w.Eng.RunUntil(stop)
	for _, cl := range loops {
		cl.Stop()
		lat.Merge(&cl.Latency)
		completed += cl.Completed
	}
	return lat, completed, stop - warm
}

// newFabricLoops wires one closed loop per client over issue. Request
// IDs are scoped per client loop; respSize is what the server echoes
// back.
func newFabricLoops(w *World, nClients int, issue func(client, stream int, reqID uint64, size, respSize int), size, respSize int) []*rpc.ClosedLoop {
	loops := make([]*rpc.ClosedLoop, nClients)
	for i := range loops {
		i := i
		loops[i] = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
			issue(i, stream, reqID, size, respSize)
		})
	}
	return loops
}

// MeasureIncast runs one fan-in point: `clients` hosts each drive
// IncastStreams closed-loop streams of size-byte requests (minimal
// responses) at one server behind the shallow-buffered switch, so the
// server's egress port is the shared bottleneck. Tail latency and
// goodput collapse are the outputs.
func MeasureIncast(sys FabricSystem, clients, size int, seed int64) (IncastRow, error) {
	w := NewFabricWorld(seed, incastTopology(clients))
	cl := w.ClientHosts()
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, cl, w.Server,
		FabricConfig{StreamsPerClient: IncastStreams, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		return IncastRow{}, err
	}
	loops = newFabricLoops(w, len(cl), issue, size, rpc.MinSize)
	lat, completed, window := runFabricLoops(w, loops, IncastStreams)
	return IncastRow{
		System:      sys.Name,
		Clients:     clients,
		Size:        size,
		RPCsPerSec:  float64(completed) / window.Seconds(),
		GoodputGbps: float64(completed) * float64(size) * 8 / window.Seconds() / 1e9,
		MeanLatUs:   lat.Mean() / 1e3,
		P50LatUs:    float64(lat.P50()) / 1e3,
		P99LatUs:    float64(lat.P99()) / 1e3,
		SwitchDrops: w.Net.SwitchDrops.N,
		N:           completed,
	}, nil
}

// MulticlientRow is one (system, clients) scaling point.
type MulticlientRow struct {
	System  string
	Clients int
	// RPCsPerSec is the aggregate completion rate across all clients.
	RPCsPerSec float64
	// PerClientRPCs is the mean per-client rate (scaling efficiency =
	// PerClientRPCs at M divided by PerClientRPCs at 1).
	PerClientRPCs float64
	MeanLatUs     float64
	P99LatUs      float64
	// ServerCPU is the server's busy fraction over the window — the
	// resource aggregate scaling runs into.
	ServerCPU float64
	N         uint64
}

// multiclientTopology: M clients + 1 server behind a deep-buffered
// switch, so scaling is bounded by the server (CPU, port rate), not by
// drops.
func multiclientTopology(clients int) netsim.Topology {
	return netsim.Topology{Hosts: clients + 1, Switch: &netsim.SwitchConfig{}}
}

// MeasureMulticlient runs one scaling point: `clients` hosts each drive
// MulticlientStreams closed-loop echo streams of MulticlientSize bytes
// at one server, reporting aggregate throughput and server CPU.
func MeasureMulticlient(sys FabricSystem, clients int, seed int64) (MulticlientRow, error) {
	w := NewFabricWorld(seed, multiclientTopology(clients))
	cl := w.ClientHosts()
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, cl, w.Server,
		FabricConfig{StreamsPerClient: MulticlientStreams, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		return MulticlientRow{}, err
	}
	loops = newFabricLoops(w, len(cl), issue, MulticlientSize, MulticlientSize)

	// Track server CPU over the measurement window only (as fig7 does).
	start := w.Eng.Now()
	warm := start + 5*sim.Millisecond
	var srvApp0, srvSirq0 sim.Time
	w.Eng.At(warm, func() { srvApp0, srvSirq0 = w.Server.CPUBusy() })

	lat, completed, window := runFabricLoops(w, loops, MulticlientStreams)
	sa, ss := w.Server.CPUBusy()
	srvBusy := ((sa - srvApp0) + (ss - srvSirq0)).Seconds() / window.Seconds() / float64(AppThreads+StackCores)

	agg := float64(completed) / window.Seconds()
	return MulticlientRow{
		System:        sys.Name,
		Clients:       clients,
		RPCsPerSec:    agg,
		PerClientRPCs: agg / float64(clients),
		MeanLatUs:     lat.Mean() / 1e3,
		P99LatUs:      float64(lat.P99()) / 1e3,
		ServerCPU:     srvBusy,
		N:             completed,
	}, nil
}
