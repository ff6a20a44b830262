package experiments

import (
	"smt/internal/rpc"
	"smt/internal/sim"
)

// Fig6Sizes are the RPC sizes of Figure 6.
var Fig6Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// RTTRow is one (system, size) point of an unloaded-RTT figure.
type RTTRow struct {
	System  string
	Size    int
	MeanRTT sim.Time
	P50RTT  sim.Time
	N       uint64
}

// MeasureRTT runs a single-stream closed loop (no concurrent RPCs — the
// §5.1 methodology) for one system at one size and returns the mean RTT.
func MeasureRTT(sys System, size, mtu int, noTSO bool, seed int64, pa ...*pointAudit) (RTTRow, error) {
	w := audited(NewWorld(seed), pa)
	var cl *rpc.ClosedLoop
	issue, err := sys.Setup(w, 1, mtuOrDefault(mtu), noTSO, func(id uint64) { cl.Done(id) })
	if err != nil {
		return RTTRow{}, err
	}
	cl = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
		issue(stream, reqID, size, size)
	})
	// Paper: 3 trials of 8 s; in virtual time the distribution is
	// deterministic, so a shorter window suffices: warm 1 ms, measure
	// until 200 RPCs or 100 ms.
	start := w.Eng.Now()
	warm := start + 1*sim.Millisecond
	stop := start + 100*sim.Millisecond
	cl.Start(1, warm, stop)
	for cl.Completed < 200 && w.Eng.Now() < stop {
		w.Eng.RunUntil(w.Eng.Now() + sim.Millisecond)
	}
	cl.Stop()
	return RTTRow{
		System:  sys.Name,
		Size:    size,
		MeanRTT: sim.Time(cl.Latency.Mean()),
		P50RTT:  sim.Time(cl.Latency.P50()),
		N:       cl.Latency.Count(),
	}, nil
}
