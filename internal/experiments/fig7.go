package experiments

import (
	"smt/internal/rpc"
	"smt/internal/sim"
)

// Fig7Concurrency and Fig7Sizes are the §5.2 sweep parameters;
// Fig7MTUConcurrency and Fig7MTUs are the jumbo-MTU paragraph's grid.
var (
	Fig7Concurrency    = []int{50, 100, 150, 200}
	Fig7Sizes          = []int{64, 1024, 8192}
	Fig7MTUConcurrency = []int{50, 100, 150}
	Fig7MTUs           = []int{1500, 9000}
)

// TputRow is one (system, size, concurrency) throughput point.
type TputRow struct {
	System      string
	Size        int
	Concurrency int
	// RPCsPerSec is the measured completion rate.
	RPCsPerSec float64
	MeanLatUs  float64
	// ClientCPU/ServerCPU are busy fractions over the measurement
	// window, for the §5.2 CPU-usage comparison.
	ClientCPU float64
	ServerCPU float64
}

// MeasureThroughput runs `streams` concurrent closed-loop RPC streams of
// one size (response size = request size) and reports the completion
// rate. spacing, when non-zero, rate-caps each stream (§5.2 CPU test).
func MeasureThroughput(sys System, size, streams, mtu int, spacing sim.Time, seed int64, pa ...*pointAudit) (TputRow, error) {
	w, cl, warm, stop, err := startClosedLoop(sys, size, streams, mtu, spacing, seed, pa)
	if err != nil {
		return TputRow{}, err
	}

	// Track CPU busy over the measurement window only.
	var cliApp0, cliSirq0, srvApp0, srvSirq0 sim.Time
	w.Eng.At(warm, func() {
		ca, cs := w.Client.CPUBusy()
		sa, ss := w.Server.CPUBusy()
		cliApp0, cliSirq0, srvApp0, srvSirq0 = ca, cs, sa, ss
	})
	w.Eng.RunUntil(stop)
	cl.Stop()

	ca, cs := w.Client.CPUBusy()
	sa, ss := w.Server.CPUBusy()
	window := (stop - warm).Seconds()
	totalCores := float64(AppThreads + StackCores)
	cliBusy := ((ca - cliApp0) + (cs - cliSirq0)).Seconds() / window / totalCores
	srvBusy := ((sa - srvApp0) + (ss - srvSirq0)).Seconds() / window / totalCores

	return TputRow{
		System: sys.Name, Size: size, Concurrency: streams,
		RPCsPerSec: cl.Throughput(),
		MeanLatUs:  cl.Latency.Mean() / 1e3,
		ClientCPU:  cliBusy,
		ServerCPU:  srvBusy,
	}, nil
}

// startClosedLoop builds sys's world with `streams` closed-loop RPC
// streams of one size and starts the loop, without running the engine.
// It warms 5 ms and measures 25 ms — long enough for tens of thousands
// of RPCs in virtual time, deterministic by construction — and returns
// the warm mark and the stop time with the world and the loop.
func startClosedLoop(sys System, size, streams, mtu int, spacing sim.Time, seed int64, pa []*pointAudit) (w *World, cl *rpc.ClosedLoop, warm, stop sim.Time, err error) {
	w = audited(NewWorld(seed), pa)
	issue, err := sys.Setup(w, streams, mtuOrDefault(mtu), false, func(id uint64) { cl.Done(id) })
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cl = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
		issue(stream, reqID, size, size)
	})
	cl.StreamSpacing = spacing
	start := w.Eng.Now()
	warm = start + 5*sim.Millisecond
	stop = start + 30*sim.Millisecond
	cl.Start(streams, warm, stop)
	return w, cl, warm, stop, nil
}

// CPUUsageLineup is the §5.2 fixed-rate comparison lineup as specs.
func CPUUsageLineup() []StackSpec {
	return []StackSpec{
		mustStack("kTLS-sw"), mustStack("kTLS-hw"),
		mustStack("SMT-sw"), mustStack("SMT-hw"),
	}
}

// MeasureCPUUsage runs one system of the §5.2 CPU-usage comparison:
// 1 KB RPCs rate-capped to targetRate req/s via per-stream spacing,
// reporting busy fractions.
func MeasureCPUUsage(sys System, targetRate float64, seed int64, pa ...*pointAudit) (TputRow, error) {
	const streams = 150
	spacing := sim.Time(float64(streams) / targetRate * 1e9)
	return MeasureThroughput(sys, 1024, streams, 0, spacing, seed, pa...)
}
