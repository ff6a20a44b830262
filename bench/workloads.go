package main

import (
	"fmt"
	"math"

	"smt/internal/experiments"
	"smt/internal/netsim"
	"smt/internal/wire"
)

// point is one cell of a workload's grid: the registry point it
// reproduces (same key, same seed) plus the calls that measure it and
// that build its worlds without traffic.
type point struct {
	Key  string
	Seed int64 // registry seed; a run adds its -seed offset
	// Run measures the point at the given world seed and flattens the
	// row exactly as the registry does.
	Run func(seed int64) (experiments.Values, error)
	// Setup builds and wires the point's worlds and runs no traffic.
	Setup func(seed int64) error
}

// workload is one benchmark input: a grid of registry points run back
// to back on one goroutine.
type workload struct {
	Name string
	// Experiment is the registry experiment the points come from.
	Experiment string
	Points     func() []point
	// RPCs reads the completed-RPC count out of a point's Values.
	RPCs func(experiments.Values) float64
}

// workloads is the benchmark's fixed set, in the order rounds run them.
// Why each was chosen is in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		Name:       "rtt",
		Experiment: "fig6",
		Points:     rttPoints,
		RPCs:       func(v experiments.Values) float64 { return v["n"] },
	},
	{
		Name:       "rpc-small",
		Experiment: "fig7",
		Points:     rpcSmallPoints,
		// MeasureThroughput's window is 25 ms of virtual time.
		RPCs: func(v experiments.Values) float64 { return math.Round(v["rpcs_per_sec"] * 0.025) },
	},
	{
		Name:       "loadsweep",
		Experiment: "loadsweep",
		Points:     loadSweepPoints,
		RPCs:       func(v experiments.Values) float64 { return v["n"] },
	},
	{
		Name:       "churn",
		Experiment: "churn",
		Points:     churnPoints,
		RPCs:       func(v experiments.Values) float64 { return v["completed"] },
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have rtt, rpc-small, loadsweep, churn)", name)
}

// rpcSmallSize is the request and response size of the rpc-small grid.
const rpcSmallSize = 64

func noDone(uint64) {}

func noFabricDone(int, uint64) {}

// twoHostSetup wires spec on a fresh two-host world with the given
// stream count, as MeasureRTT and MeasureThroughput do before their
// traffic starts.
func twoHostSetup(spec experiments.StackSpec, streams int) func(int64) error {
	return func(seed int64) error {
		sys, err := experiments.BuildSystem(spec)
		if err != nil {
			return err
		}
		_, err = sys.Setup(experiments.NewWorld(seed), streams, wire.DefaultMTU, false, noDone)
		return err
	}
}

func rttPoints() []point {
	var pts []point
	for _, size := range experiments.Fig6Sizes {
		for _, spec := range experiments.DefaultLineup() {
			pts = append(pts, point{
				Key:  fmt.Sprintf("sys=%s/size=%d", spec.Name, size),
				Seed: 42,
				Run: func(seed int64) (experiments.Values, error) {
					sys, err := experiments.BuildSystem(spec)
					if err != nil {
						return nil, err
					}
					r, err := experiments.MeasureRTT(sys, size, 0, false, seed)
					if err != nil {
						return nil, err
					}
					return experiments.Values{
						"mean_rtt_ns": float64(r.MeanRTT),
						"p50_rtt_ns":  float64(r.P50RTT),
						"n":           float64(r.N),
					}, nil
				},
				Setup: twoHostSetup(spec, 1),
			})
		}
	}
	return pts
}

func rpcSmallPoints() []point {
	var pts []point
	for _, c := range experiments.Fig7Concurrency {
		for _, spec := range experiments.DefaultLineup() {
			pts = append(pts, point{
				Key:  fmt.Sprintf("sys=%s/size=%d/conc=%d", spec.Name, rpcSmallSize, c),
				Seed: 1000 + int64(c),
				Run: func(seed int64) (experiments.Values, error) {
					sys, err := experiments.BuildSystem(spec)
					if err != nil {
						return nil, err
					}
					r, err := experiments.MeasureThroughput(sys, rpcSmallSize, c, 0, 0, seed)
					if err != nil {
						return nil, err
					}
					return experiments.Values{
						"rpcs_per_sec": r.RPCsPerSec,
						"mean_lat_us":  r.MeanLatUs,
						"client_cpu":   r.ClientCPU,
						"server_cpu":   r.ServerCPU,
					}, nil
				},
				Setup: twoHostSetup(spec, c),
			})
		}
	}
	return pts
}

// fabricTopology is the shallow-buffered switch fabric loadsweep and
// churn run on: clients + 1 server behind one output-queued switch.
func fabricTopology(clients int) netsim.Topology {
	return netsim.Topology{
		Hosts:  clients + 1,
		Switch: &netsim.SwitchConfig{BufferBytes: experiments.LoadSweepBufferBytes},
	}
}

func loadSweepPoints() []point {
	var pts []point
	for _, load := range experiments.LoadSweepLoads {
		for _, spec := range experiments.DefaultLineup() {
			pts = append(pts, point{
				Key:  fmt.Sprintf("sys=%s/load=%d", spec.Name, experiments.LoadSweepPercent(load)),
				Seed: experiments.LoadSweepSeed(load),
				Run: func(seed int64) (experiments.Values, error) {
					sys, err := experiments.BuildFabric(spec)
					if err != nil {
						return nil, err
					}
					r, err := experiments.MeasureLoadSweep(sys, load, seed)
					if err != nil {
						return nil, err
					}
					return experiments.Values{
						"offered_gbps": r.OfferedGbps,
						"goodput_gbps": r.GoodputGbps,
						"p50_slowdown": r.P50Slowdown,
						"p99_slowdown": r.P99Slowdown,
						"mean_lat_us":  r.MeanLatUs,
						"p99_lat_us":   r.P99LatUs,
						"switch_drops": float64(r.SwitchDrops),
						"issued":       float64(r.Issued),
						"n":            float64(r.N),
					}, nil
				},
				// MeasureLoadSweep wires two worlds: the idle twin that
				// measures the unloaded ideals, then the loaded one.
				Setup: func(seed int64) error {
					sys, err := experiments.BuildFabric(spec)
					if err != nil {
						return err
					}
					cfg := experiments.FabricConfig{StreamsPerClient: experiments.LoadSweepStreams, MTU: wire.DefaultMTU}
					for i := 0; i < 2; i++ {
						w := experiments.NewFabricWorld(seed, fabricTopology(experiments.LoadSweepClients))
						if _, err := sys.Setup(w, w.ClientHosts(), w.Server, cfg, noFabricDone); err != nil {
							return err
						}
					}
					return nil
				},
			})
		}
	}
	return pts
}

func churnPoints() []point {
	type cell struct {
		spec   experiments.StackSpec
		policy experiments.HandshakePolicy
		forced bool
	}
	// The lineup at its default policy, plus forced 1-RTT for the stacks
	// that default to 0-RTT: the registry's churn decomposition.
	var cells []cell
	for _, spec := range experiments.DefaultLineup() {
		def := experiments.ChurnPolicyFor(spec)
		cells = append(cells, cell{spec, def, false})
		if def == experiments.HS0RTT {
			cells = append(cells, cell{spec, experiments.HS1RTT, true})
		}
	}
	var pts []point
	for _, rate := range experiments.ChurnRates {
		for _, c := range cells {
			key := fmt.Sprintf("sys=%s/rate=%d", c.spec.Name, int(rate))
			if c.forced {
				key += "/hs=" + c.policy.String()
			}
			pts = append(pts, point{
				Key:  key,
				Seed: experiments.ChurnSeed(rate),
				Run: func(seed int64) (experiments.Values, error) {
					r, err := experiments.MeasureChurn(c.spec, c.policy, rate, seed)
					if err != nil {
						return nil, err
					}
					return experiments.Values{
						"dials":            float64(r.Dials),
						"established":      float64(r.Established),
						"completed":        float64(r.Completed),
						"failed":           float64(r.Failed),
						"setup_p50_us":     r.SetupP50Us,
						"setup_p99_us":     r.SetupP99Us,
						"first_resp_p99us": r.FirstRespP99Us,
						"hs_cpu_frac":      r.HsCPUFrac,
						"ticket_hits":      float64(r.TicketHits),
						"ticket_misses":    float64(r.TicketMisses),
						"ticket_rotations": float64(r.TicketRotations),
						"ticket_hit_rate":  r.TicketHitRate,
					}, nil
				},
				Setup: func(seed int64) error {
					w := experiments.NewFabricWorld(seed, fabricTopology(experiments.ChurnClients))
					_, err := experiments.NewDialer(w, c.spec, experiments.DialConfig{Policy: c.policy, TicketTTL: experiments.ChurnTicketTTL})
					return err
				},
			})
		}
	}
	return pts
}
