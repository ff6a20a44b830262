package experiments

import (
	"fmt"
	"strconv"

	"smt/internal/handshake"
)

// This file is the one definition of every table/figure of the
// evaluation: its grid, its seed rule, and the Measure* call that turns
// one cell into Values. Each sweep is decomposed into one point per
// independent (configuration, seed) cell; a point holds a StackSpec and
// builds its own system and World inside its Run closure, so no state
// is shared between points and any subset may run concurrently. Each
// closure passes the point's audit (RunOptions.Audit) on to its
// Measure* call, which attaches every World it builds.
//
// The lineup-driven sweeps (fig6, fig7, fig9, incast, multiclient,
// loadsweep, churn) decompose over their lineup argument: DefaultLineup
// unless the run's RunOptions.Lineup selects another (smtexp -stacks).
// The other experiments fix their own stacks and ignore the argument.

func itoa(v int) string { return strconv.Itoa(v) }

func init() {
	register("fig6", "unloaded RTT across RPC sizes for the stack lineup (§5.1)", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, size := range Fig6Sizes {
			for _, stack := range lineup {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/size=%d", stack.Name, size),
					Seed:   42,
					Labels: Labels{"system": stack.Name, "size": itoa(size)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildSystem(stack)
						if err != nil {
							return nil, err
						}
						r, err := MeasureRTT(sys, size, 0, false, seed, pa)
						return rttValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("fig7", "throughput over concurrency for 64B/1KB/8KB RPCs across the stack lineup (§5.2)", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, size := range Fig7Sizes {
			for _, c := range Fig7Concurrency {
				for _, stack := range lineup {
					specs = append(specs, pointSpec{
						Key:    fmt.Sprintf("sys=%s/size=%d/conc=%d", stack.Name, size, c),
						Seed:   1000 + int64(c),
						Labels: Labels{"system": stack.Name, "size": itoa(size), "concurrency": itoa(c)},
						Run: func(seed int64, pa *pointAudit) (Values, error) {
							sys, err := BuildSystem(stack)
							if err != nil {
								return nil, err
							}
							r, err := MeasureThroughput(sys, size, c, 0, 0, seed, pa)
							return tputValues(r), err
						},
					})
				}
			}
		}
		return specs
	})

	register("fig7mtu", "8KB RPC throughput with 1.5K vs 9K MTU for SMT-sw/hw (§5.2 jumbo-MTU paragraph)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, c := range Fig7MTUConcurrency {
			for _, mtu := range Fig7MTUs {
				for _, hw := range []bool{false, true} {
					stack := mustStack("SMT-sw")
					if hw {
						stack = mustStack("SMT-hw")
					}
					name := stack.Name
					if mtu == 9000 {
						name += "+9K"
					}
					specs = append(specs, pointSpec{
						Key:    fmt.Sprintf("sys=%s/mtu=%d/conc=%d", name, mtu, c),
						Seed:   2000 + int64(c),
						Labels: Labels{"system": name, "mtu": itoa(mtu), "concurrency": itoa(c)},
						Run: func(seed int64, pa *pointAudit) (Values, error) {
							sys, err := BuildSystem(stack)
							if err != nil {
								return nil, err
							}
							r, err := MeasureThroughput(sys, 8192, c, mtu, 0, seed, pa)
							return tputValues(r), err
						},
					})
				}
			}
		}
		return specs
	})

	register("cpuusage", "CPU busy fractions at a fixed 1.2M req/s rate for kTLS and SMT (§5.2)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, stack := range CPUUsageLineup() {
			specs = append(specs, pointSpec{
				Key:    "sys=" + stack.Name,
				Seed:   77,
				Labels: Labels{"system": stack.Name, "target_rate": "1.2e6"},
				Run: func(seed int64, pa *pointAudit) (Values, error) {
					sys, err := BuildSystem(stack)
					if err != nil {
						return nil, err
					}
					r, err := MeasureCPUUsage(sys, 1.2e6, seed, pa)
					return tputValues(r), err
				},
			})
		}
		return specs
	})

	register("fig8", "Redis-style YCSB A-E throughput over value sizes across seven systems (§5.3)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, v := range Fig8Values {
			for _, wl := range Fig8Workloads {
				for _, stack := range RedisLineup() {
					specs = append(specs, pointSpec{
						Key:    fmt.Sprintf("sys=%s/wl=%s/value=%d", stack.Name, wl, v),
						Seed:   333,
						Labels: Labels{"system": stack.Name, "workload": wl.String(), "value": itoa(v)},
						Run: func(seed int64, pa *pointAudit) (Values, error) {
							r, err := MeasureRedis(stack, wl, v, 64, seed, pa)
							return Values{"ops_per_sec": r.OpsPerSec}, err
						},
					})
				}
			}
		}
		return specs
	})

	register("fig9", "NVMe-oF 4KB random-read P50/P99 latency over iodepth for the stack lineup (§5.4)", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, d := range Fig9Depths {
			for _, stack := range lineup {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/iodepth=%d", stack.Name, d),
					Seed:   444,
					Labels: Labels{"system": stack.Name, "iodepth": itoa(d)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						r, err := MeasureNVMeoF(stack, d, seed, pa)
						return Values{"p50_us": r.P50Us, "p99_us": r.P99Us, "iops": r.IOPS}, err
					},
				})
			}
		}
		return specs
	})

	register("fig10", "unloaded RTT of TCPLS vs SMT-sw/hw (§5.5)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		lineup := []StackSpec{mustStack("TCPLS"), mustStack("SMT-sw"), mustStack("SMT-hw")}
		for _, size := range Fig10Sizes {
			for _, stack := range lineup {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/size=%d", stack.Name, size),
					Seed:   77,
					Labels: Labels{"system": stack.Name, "size": itoa(size)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildSystem(stack)
						if err != nil {
							return nil, err
						}
						r, err := MeasureRTT(sys, size, 0, false, seed, pa)
						return rttValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("fig11", "SMT-hw RTT with TSO vs software segmentation (§5.5)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, size := range Fig11Sizes {
			for _, noTSO := range []bool{false, true} {
				name := "SMT-HW-TSO"
				if noTSO {
					name = "SMT-HW-w/o-TSO"
				}
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/size=%d", name, size),
					Seed:   88,
					Labels: Labels{"system": name, "size": itoa(size), "tso": fmt.Sprint(!noTSO)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildSystem(mustStack("SMT-hw"))
						if err != nil {
							return nil, err
						}
						r, err := MeasureRTT(sys, size, 0, noTSO, seed, pa)
						return rttValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("fig12", "key-exchange + first-RPC latency for the five handshake variants (§5.6)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, size := range Fig12Sizes {
			for _, m := range Fig12Modes {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("mode=%s/size=%d", m, size),
					Seed:   5000,
					Labels: Labels{"mode": m.String(), "size": itoa(size)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						r, err := MeasureKeyExchange(m, size, seed, pa)
						return Values{"time_us": r.TimeUs}, err
					},
				})
			}
		}
		return specs
	})

	register("incast", "M-client incast onto one switch port: tail latency and goodput collapse across the stack lineup", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, m := range IncastClients {
			for _, size := range IncastSizes {
				for _, stack := range lineup {
					specs = append(specs, pointSpec{
						Key:    fmt.Sprintf("sys=%s/clients=%d/size=%d", stack.Name, m, size),
						Seed:   9000 + int64(m),
						Labels: Labels{"system": stack.Name, "clients": itoa(m), "size": itoa(size)},
						Run: func(seed int64, pa *pointAudit) (Values, error) {
							sys, err := BuildFabric(stack)
							if err != nil {
								return nil, err
							}
							r, err := MeasureIncast(sys, m, size, seed, pa)
							return incastValues(r), err
						},
					})
				}
			}
		}
		return specs
	})

	register("multiclient", "aggregate throughput scaling as client hosts are added, across the stack lineup", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, m := range MulticlientCounts {
			for _, stack := range lineup {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/clients=%d", stack.Name, m),
					Seed:   8000 + int64(m),
					Labels: Labels{"system": stack.Name, "clients": itoa(m)},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildFabric(stack)
						if err != nil {
							return nil, err
						}
						r, err := MeasureMulticlient(sys, m, seed, pa)
						return Values{
							"rpcs_per_sec":    r.RPCsPerSec,
							"per_client_rpcs": r.PerClientRPCs,
							"mean_lat_us":     r.MeanLatUs,
							"p99_lat_us":      r.P99LatUs,
							"server_cpu":      r.ServerCPU,
							"n":               float64(r.N),
						}, err
					},
				})
			}
		}
		return specs
	})

	register("loadsweep", "open-loop offered-load sweep: p50/p99 slowdown and goodput vs load across the stack lineup", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, load := range LoadSweepLoads {
			for _, stack := range lineup {
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/load=%d", stack.Name, LoadSweepPercent(load)),
					Seed:   LoadSweepSeed(load),
					Labels: Labels{"system": stack.Name, "load": fmt.Sprintf("%.2f", load), "dist": LoadSweepDist().Name()},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildFabric(stack)
						if err != nil {
							return nil, err
						}
						r, err := MeasureLoadSweep(sys, load, seed, pa)
						return loadSweepValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("bigworld", "64-host single-switch loadsweep smoke: timer-churn scale point on the road to 256 hosts", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for _, stack := range BigWorldLineup() {
			specs = append(specs, pointSpec{
				Key:  fmt.Sprintf("sys=%s/hosts=%d/load=%d", stack.Name, BigWorldHosts, LoadSweepPercent(BigWorldLoad)),
				Seed: BigWorldSeed,
				Labels: Labels{
					"system": stack.Name,
					"hosts":  itoa(BigWorldHosts),
					"load":   fmt.Sprintf("%.2f", BigWorldLoad),
					"dist":   LoadSweepDist().Name(),
				},
				Run: func(seed int64, pa *pointAudit) (Values, error) {
					sys, err := BuildFabric(stack)
					if err != nil {
						return nil, err
					}
					r, err := MeasureBigWorld(sys, seed, pa)
					return loadSweepValues(r), err
				},
			})
		}
		return specs
	})

	register("churn", "live connection churn: dialed key exchanges at a swept arrival rate — setup latency, handshake CPU, dcdns ticket hit rate", func(lineup []StackSpec) []pointSpec {
		var specs []pointSpec
		for _, rate := range ChurnRates {
			for _, pt := range churnPoints(lineup) {
				rate, pt := rate, pt
				key := fmt.Sprintf("sys=%s/rate=%d", pt.Spec.Name, int(rate))
				if pt.Forced {
					key += "/hs=" + pt.Policy.String()
				}
				specs = append(specs, pointSpec{
					Key:  key,
					Seed: ChurnSeed(rate),
					Labels: Labels{
						"system": pt.Spec.Name,
						"rate":   fmt.Sprintf("%.0f", rate),
						"hs":     pt.Policy.String(),
					},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						r, err := MeasureChurn(pt.Spec, pt.Policy, rate, seed, pa)
						return churnValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("chaos", "fault/chaos battery: loss+dup+reorder+corruption storms × every stack, audited fail-closed", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for li := range ChaosLevels {
			level := ChaosLevels[li]
			for _, stack := range Stacks() {
				stack := stack
				specs = append(specs, pointSpec{
					Key:    fmt.Sprintf("sys=%s/fault=%s", stack.Name, level.Name),
					Seed:   chaosSeed(li),
					Labels: Labels{"system": stack.Name, "fault": level.Name},
					Run: func(seed int64, pa *pointAudit) (Values, error) {
						sys, err := BuildFabric(stack)
						if err != nil {
							return nil, err
						}
						r, err := MeasureChaos(sys, level.C, seed, pa)
						return chaosValues(r), err
					},
				})
			}
		}
		return specs
	})

	register("fig2", "autonomous-offload resync semantics: in-seq, out-of-seq, resync-repaired (§3.2)", func([]StackSpec) []pointSpec {
		var specs []pointSpec
		for i := range fig2Scenarios {
			name := fig2Scenarios[i].name
			specs = append(specs, pointSpec{
				Key:    name,
				Seed:   1,
				Labels: Labels{"scenario": name},
				Run: func(seed int64, _ *pointAudit) (Values, error) {
					r := Fig2Scenario(i, seed)
					dec := 0.0
					if r.Decrypted {
						dec = 1
					}
					return Values{
						"decrypted": dec,
						"corrupted": float64(r.Corrupted),
						"resyncs":   float64(r.Resyncs),
					}, nil
				},
			})
		}
		return specs
	})

	register("fig5", "composite sequence-number bit-allocation trade-off matrix (§4.4.1)", func([]StackSpec) []pointSpec {
		rows := Fig5()
		var specs []pointSpec
		for i := range rows {
			r := rows[i]
			specs = append(specs, pointSpec{
				Key:    fmt.Sprintf("size_bits=%d", r.SizeBits),
				Labels: Labels{"size_bits": itoa(r.SizeBits), "id_bits": itoa(r.IDBits)},
				Run: func(int64, *pointAudit) (Values, error) {
					return Values{
						"size_bits":           float64(r.SizeBits),
						"id_bits":             float64(r.IDBits),
						"max_messages":        r.MaxMessages,
						"max_msg_size_mb":     r.MaxMsgSizeMB,
						"max_msg_size_16k_mb": r.MaxMsgSize16KB,
					}, nil
				},
			})
		}
		return specs
	})

	register("table1", "design-space property matrix of transport-encryption systems (§2)", func([]StackSpec) []pointSpec {
		rows := Table1()
		var specs []pointSpec
		for i := range rows {
			specs = append(specs, pointSpec{
				Key: "sys=" + rows[i].System,
				Run: func(int64, *pointAudit) (Values, error) {
					return nil, nil
				},
				Labels: Labels{
					"system":      rows[i].System,
					"encryption":  rows[i].Encryption,
					"abstraction": rows[i].Abstraction,
					"offload":     rows[i].Offload,
					"protocol":    rows[i].Protocol,
					"parallelism": rows[i].Parallelism,
				},
			})
		}
		return specs
	})

	register("table2", "per-operation handshake cost breakdown with real crypto on this machine (§5.6)", func([]StackSpec) []pointSpec {
		// One point: the rows share key material and are measured
		// together; values are wall-clock and so machine-dependent.
		return []pointSpec{{
			Key: "all-ops",
			Run: func(int64, *pointAudit) (Values, error) {
				vals := Values{}
				for _, r := range handshake.MeasureTable2() {
					vals["paper_us/"+r.Name] = r.PaperUs
					vals["measured_us/"+r.Name] = r.MeasuredUs
					if r.PaperRSAUs > 0 {
						vals["paper_rsa_us/"+r.Name] = r.PaperRSAUs
						vals["measured_rsa_us/"+r.Name] = r.MeasRSAUs
					}
				}
				return vals, nil
			},
		}}
	})
}

// rttValues flattens an unloaded-RTT row into registry values.
func rttValues(r RTTRow) Values {
	return Values{
		"mean_rtt_ns": float64(r.MeanRTT),
		"p50_rtt_ns":  float64(r.P50RTT),
		"n":           float64(r.N),
	}
}

// tputValues flattens a throughput row into registry values.
func tputValues(r TputRow) Values {
	return Values{
		"rpcs_per_sec": r.RPCsPerSec,
		"mean_lat_us":  r.MeanLatUs,
		"client_cpu":   r.ClientCPU,
		"server_cpu":   r.ServerCPU,
	}
}

// loadSweepValues flattens a load-sweep row into registry values.
func loadSweepValues(r LoadSweepRow) Values {
	return Values{
		"offered_gbps": r.OfferedGbps,
		"goodput_gbps": r.GoodputGbps,
		"p50_slowdown": r.P50Slowdown,
		"p99_slowdown": r.P99Slowdown,
		"mean_lat_us":  r.MeanLatUs,
		"p99_lat_us":   r.P99LatUs,
		"switch_drops": float64(r.SwitchDrops),
		"issued":       float64(r.Issued),
		"n":            float64(r.N),
	}
}

// incastValues flattens an incast row into registry values.
func incastValues(r IncastRow) Values {
	return Values{
		"rpcs_per_sec": r.RPCsPerSec,
		"goodput_gbps": r.GoodputGbps,
		"mean_lat_us":  r.MeanLatUs,
		"p50_lat_us":   r.P50LatUs,
		"p99_lat_us":   r.P99LatUs,
		"switch_drops": float64(r.SwitchDrops),
		"n":            float64(r.N),
	}
}
