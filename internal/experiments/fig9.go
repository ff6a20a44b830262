package experiments

import (
	"smt/internal/nvmeof"
	"smt/internal/rpc"
	"smt/internal/sim"
)

// Fig9Depths is the Figure 9 iodepth grid.
var Fig9Depths = []int{1, 2, 4, 6, 8}

// Fig9Row is one (system, iodepth) NVMe-oF latency point.
type Fig9Row struct {
	System  string
	IODepth int
	P50Us   float64
	P99Us   float64
	IOPS    float64
}

// MeasureNVMeoF runs FIO-style 4 KB random reads at the given iodepth
// over one stack. The in-kernel paths replace the app-level echo
// handler: the target submits to the simulated SSD and responds with
// the block; the initiator completes in kernel context. We model the
// in-kernel discount by the smaller fixed costs and (for the
// message-transport port, every homa stack) one extra copy of the 4 KB
// payload (§5.4).
func MeasureNVMeoF(spec StackSpec, iodepth int, seed int64, pa ...*pointAudit) (Fig9Row, error) {
	sys, err := BuildSystem(spec)
	if err != nil {
		return Fig9Row{}, err
	}
	w := audited(NewWorld(seed), pa)
	ssd := nvmeof.NewSSD(w.Eng, nvmeof.DefaultChannels, nvmeof.DefaultReadLatency)
	extraCopy := spec.Transport == TransportHoma

	var cl *rpc.ClosedLoop
	// Reuse the generic echo systems; the SSD latency is charged at the
	// server by delaying the response via the SSD model, and the
	// in-kernel discounts/extra copy adjust the path.
	issue, err := sys.Setup(w, iodepth, 0, false, func(id uint64) { cl.Done(id) })
	if err != nil {
		return Fig9Row{}, err
	}

	rng := w.Eng.Rand()
	cl = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
		lba := uint64(rng.Intn(1 << 20))
		// Target-side SSD read happens before the response can be
		// generated; model it as added service time by deferring the
		// issue's response through the SSD. Since the echo server
		// responds immediately on delivery, we instead pre-charge the
		// SSD access on the request path: the response leaves after
		// media + fabric time, which preserves the latency composition.
		ssd.Read(lba, func() {
			extra := nvmeof.TargetFixed + nvmeof.ClientFixed
			if extraCopy {
				extra += w.CM.Copy(nvmeof.BlockSize)
			}
			w.Eng.After(extra, func() {
				issue(stream, reqID, rpc.MinSize+16, nvmeof.BlockSize)
			})
		})
	})
	start := w.Eng.Now()
	warm := start + 10*sim.Millisecond
	stop := start + 60*sim.Millisecond
	cl.Start(iodepth, warm, stop)
	w.Eng.RunUntil(stop)
	cl.Stop()
	// The loop stamps each IO before the SSD read starts, so every
	// latency sample already holds the media time.
	return Fig9Row{
		System: sys.Name, IODepth: iodepth,
		P50Us: float64(cl.Latency.P50()) / 1e3,
		P99Us: float64(cl.Latency.P99()) / 1e3,
		IOPS:  cl.Throughput(),
	}, nil
}
