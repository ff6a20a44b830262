package experiments

import (
	"fmt"
	"math"

	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/workload"
)

// This file holds the open-loop load-sweep experiment: M client hosts
// drive Poisson arrivals of a heavy-tailed message mix at one server
// through the switched fabric, sweeping the offered load as a fraction
// of the link rate. Unlike the closed-loop sweeps (fig7, incast), the
// issue rate does not back off under overload, so transport and
// encryption overheads surface as queueing-amplified p50/p99
// *slowdown* — observed completion time over the unloaded ideal for
// that message size — the evaluation axis of Homa-style comparisons.

// LoadSweepLoads sweeps the offered load as a fraction of the link
// rate. The sweep tops out at 60%: beyond that the
// server's four softirq cores saturate for every transport, so the
// open loop drives unbounded queues for all six systems and there is
// no separation left to measure (the regime the sweep exists to show
// is the approach to saturation, 50–60%).
var LoadSweepLoads = []float64{0.1, 0.3, 0.5, 0.6}

// Fixed load-sweep parameters.
const (
	// LoadSweepClients is the number of client hosts spreading the
	// offered load.
	LoadSweepClients = 4
	// LoadSweepStreams is the stream (connection) fan-out per client the
	// open loop round-robins over.
	LoadSweepStreams = 8
	// LoadSweepBufferBytes is the switch shared buffer — the same
	// shallow ToR slice as the incast runs, so overload tail-drops.
	LoadSweepBufferBytes = 256 * 1024
	// loadSweepWarm/loadSweepWindow bound one point's virtual time:
	// warm 2 ms, measure 10 ms.
	loadSweepWarm   = 2 * sim.Millisecond
	loadSweepWindow = 10 * sim.Millisecond
)

// LoadSweepDist is the message-size mix every load-sweep point draws
// from.
func LoadSweepDist() workload.Dist { return workload.WebSearch() }

// LoadSweepRow is one (system, load) point of the sweep.
type LoadSweepRow struct {
	System string
	// Load is the nominal offered load as a fraction of the link rate.
	Load float64
	// OfferedGbps is the realized offered load (issued bytes over the
	// window); GoodputGbps counts completed request payload.
	OfferedGbps float64
	GoodputGbps float64
	// P50Slowdown/P99Slowdown are quantiles of per-completion slowdown:
	// observed completion time / unloaded ideal for that message size.
	P50Slowdown float64
	P99Slowdown float64
	MeanLatUs   float64
	P99LatUs    float64
	// SwitchDrops counts shared-buffer tail drops at the switch.
	SwitchDrops uint64
	// Issued counts in-window arrivals; N counts those of them that
	// completed inside the window (N <= Issued always).
	Issued uint64
	N      uint64
}

// loadSweepParams is the fabric shape one sweep point runs on. The
// default sweep and the 64-host bigworld point share every line of the
// measurement below; only these numbers differ.
type loadSweepParams struct {
	clients int // client hosts spreading the offered load
	streams int // stream fan-out per client
	buffer  int // switch shared buffer bytes
}

func defaultLoadSweepParams() loadSweepParams {
	return loadSweepParams{
		clients: LoadSweepClients,
		streams: LoadSweepStreams,
		buffer:  LoadSweepBufferBytes,
	}
}

// topology: M clients + 1 server behind a shallow-buffered
// output-queued switch, as incast uses.
func (p loadSweepParams) topology() netsim.Topology {
	return netsim.Topology{
		Hosts:  p.clients + 1,
		Switch: &netsim.SwitchConfig{BufferBytes: p.buffer},
	}
}

// measureUnloadedIdeal measures the slowdown denominators: for each
// size in the mix's support, the mean completion time of a single
// closed-loop stream (one request outstanding) on an otherwise idle
// instance of the same fabric and system wiring.
func measureUnloadedIdeal(sys FabricSystem, dist workload.Dist, seed int64, p loadSweepParams, pa []*pointAudit) (map[int]float64, error) {
	w := audited(NewFabricWorld(seed, p.topology()), pa)
	cl := w.ClientHosts()
	var loop *rpc.ClosedLoop
	issue, err := sys.Setup(w, cl, w.Server,
		FabricConfig{StreamsPerClient: p.streams, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) {
			if loop != nil {
				loop.Done(reqID)
			}
		})
	if err != nil {
		return nil, err
	}
	ideal := make(map[int]float64, len(dist.Sizes()))
	for _, size := range dist.Sizes() {
		size := size
		loop = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
			issue(0, 0, reqID, size, rpc.MinSize)
		})
		start := w.Eng.Now()
		warm := start + 200*sim.Microsecond
		stop := start + 5*sim.Millisecond
		loop.Start(1, warm, stop)
		for loop.Completed < 50 && w.Eng.Now() < stop {
			w.Eng.RunUntil(w.Eng.Now() + 100*sim.Microsecond)
		}
		loop.Stop()
		// Let the in-flight response drain before the next size starts.
		w.Eng.RunUntil(w.Eng.Now() + 100*sim.Microsecond)
		// A baseline that measured nothing must fail the point loudly:
		// OpenLoop skips slowdown samples for sizes without an ideal, so
		// a silent zero here would quietly drop this size class from the
		// headline p99 slowdown.
		if loop.Completed == 0 || loop.Latency.Mean() <= 0 {
			return nil, fmt.Errorf("loadsweep: unloaded baseline for %s at %dB completed %d RPCs",
				sys.Name, size, loop.Completed)
		}
		ideal[size] = loop.Latency.Mean()
	}
	return ideal, nil
}

// MeasureLoadSweep runs one (system, load) point: measure the unloaded
// ideals, then drive Poisson arrivals of the LoadSweepDist mix at
// load × link rate from LoadSweepClients hosts and report goodput and
// slowdown quantiles.
func MeasureLoadSweep(sys FabricSystem, load float64, seed int64, pa ...*pointAudit) (LoadSweepRow, error) {
	return measureLoadSweepOn(sys, load, seed, defaultLoadSweepParams(), pa)
}

// measureLoadSweepOn is the parameterized sweep point the default grid
// and bigworld share.
func measureLoadSweepOn(sys FabricSystem, load float64, seed int64, p loadSweepParams, pa []*pointAudit) (LoadSweepRow, error) {
	dist := LoadSweepDist()
	ideal, err := measureUnloadedIdeal(sys, dist, seed, p, pa)
	if err != nil {
		return LoadSweepRow{}, err
	}

	w := audited(NewFabricWorld(seed, p.topology()), pa)
	cl := w.ClientHosts()
	var gen *workload.OpenLoop
	issue, err := sys.Setup(w, cl, w.Server,
		FabricConfig{StreamsPerClient: p.streams, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { gen.Done(reqID) })
	if err != nil {
		return LoadSweepRow{}, err
	}
	rate := load * w.CM.LinkGbps * 1e9 / 8 / dist.Mean() // messages/second
	gen, err = workload.NewOpenLoop(w.Eng, dist, len(cl), p.streams, rate,
		func(client, stream int, reqID uint64, size int) {
			issue(client, stream, reqID, size, rpc.MinSize)
		})
	if err != nil {
		return LoadSweepRow{}, err
	}
	gen.Ideal = ideal

	start := w.Eng.Now()
	warm := start + loadSweepWarm
	stop := warm + loadSweepWindow
	gen.Start(warm, stop)
	w.Eng.RunUntil(stop)

	window := (stop - warm).Seconds()
	return LoadSweepRow{
		System:      sys.Name,
		Load:        load,
		OfferedGbps: float64(gen.IssuedBytes) * 8 / window / 1e9,
		GoodputGbps: float64(gen.CompletedBytes) * 8 / window / 1e9,
		P50Slowdown: gen.Slowdown.P50(),
		P99Slowdown: gen.Slowdown.P99(),
		MeanLatUs:   gen.Latency.Mean() / 1e3,
		P99LatUs:    float64(gen.Latency.P99()) / 1e3,
		SwitchDrops: w.Net.SwitchDrops.N,
		Issued:      gen.Issued,
		N:           gen.Completed,
	}, nil
}

// LoadSweepPercent renders a load fraction as an integer percentage
// (rounded, so 0.29 is 29 even though 0.29*100 floats below it); keys
// and seeds both derive from it.
func LoadSweepPercent(load float64) int { return int(math.Round(load * 100)) }

// LoadSweepSeed derives the per-load world seed.
func LoadSweepSeed(load float64) int64 { return 11000 + int64(LoadSweepPercent(load)) }
