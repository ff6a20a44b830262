package experiments

import (
	"fmt"
	"testing"

	"smt/internal/handshake"
	"smt/internal/sim"
	"smt/internal/ycsb"
)

// testFig8Shape checks the §5.3 orderings on one representative cell per
// value size: SMT-sw beats user TLS and kTLS-sw; SMT-hw beats kTLS-hw;
// TCP (plain) slightly beats Homa at 4 KB values while Homa wins small.
// Runs under TestExperiments; all (system, value) cells fan out at once.
func testFig8Shape(t *testing.T) {
	values := []int{64, 1024, 4096}
	lineup := RedisLineup()
	nsys := len(lineup)
	rows := make([]Fig8Row, len(values)*nsys)
	ForEach(len(rows), 0, func(i int) {
		rows[i] = must(MeasureRedis(must(BuildRedis(lineup[i%nsys])), ycsb.WorkloadB, values[i/nsys], 64, 99))
	})
	get := func(valueSize int) map[string]float64 {
		out := map[string]float64{}
		for _, r := range rows {
			if r.Value == valueSize {
				out[r.System] = r.OpsPerSec
				t.Logf("YCSB-B v=%d %-8s %.0f ops/s", valueSize, r.System, r.OpsPerSec)
			}
		}
		return out
	}
	for _, v := range values {
		m := get(v)
		if m["SMT-sw"] <= m["TLS"] {
			t.Errorf("v=%d: SMT-sw (%f) must beat user TLS (%f)", v, m["SMT-sw"], m["TLS"])
		}
		if m["SMT-sw"] <= m["kTLS-sw"] {
			t.Errorf("v=%d: SMT-sw must beat kTLS-sw", v)
		}
		if m["SMT-hw"] <= m["kTLS-hw"] {
			t.Errorf("v=%d: SMT-hw must beat kTLS-hw", v)
		}
		if m["kTLS-sw"] <= m["TLS"] {
			t.Errorf("v=%d: kTLS-sw must beat user-space TLS", v)
		}
		// Encrypted variants cannot beat their unencrypted base.
		if m["SMT-sw"] > m["Homa"] || m["kTLS-sw"] > m["TCP"] {
			t.Errorf("v=%d: encryption came out free", v)
		}
		// Paper: gains bounded (5–24% over TLS); allow wide but sane.
		if g := m["SMT-sw"]/m["TLS"] - 1; g > 0.60 {
			t.Errorf("v=%d: SMT-sw vs TLS gain %.0f%% implausibly large", v, g*100)
		}
	}
}

// testFig9Shape checks §5.4: no advantage at iodepth 1, visible P99
// improvement at iodepth 8. Runs under TestExperiments, cells in parallel.
func testFig9Shape(t *testing.T) {
	depths := []int{1, 8}
	lineup := DefaultLineup()
	nsys := len(lineup)
	flat := make([]Fig9Row, len(depths)*nsys)
	ForEach(len(flat), 0, func(i int) {
		flat[i] = must(MeasureNVMeoF(must(BuildSystem(lineup[i%nsys])), depths[i/nsys], 12))
	})
	rows := map[string]map[int]Fig9Row{}
	for _, r := range flat {
		if rows[r.System] == nil {
			rows[r.System] = map[int]Fig9Row{}
		}
		rows[r.System][r.IODepth] = r
		t.Logf("iodepth=%d %-8s p50=%.1fµs p99=%.1fµs", r.IODepth, r.System, r.P50Us, r.P99Us)
	}
	// iodepth 1: SMT within ±10% of kTLS (no clear advantage).
	d1 := rows["SMT-sw"][1].P50Us / rows["kTLS-sw"][1].P50Us
	if d1 < 0.85 || d1 > 1.10 {
		t.Errorf("iodepth 1 P50 ratio %.2f; expected near parity", d1)
	}
	// iodepth 8: the paper reports up to 16/21 % P99 reduction; device
	// queueing dominates our tail, so require SMT at worst at parity
	// with kTLS and never slower by more than 3 % (see EXPERIMENTS.md).
	if rows["SMT-sw"][8].P99Us > rows["kTLS-sw"][8].P99Us*1.03 {
		t.Errorf("iodepth 8: SMT-sw P99 (%.1f) should not exceed kTLS-sw (%.1f)",
			rows["SMT-sw"][8].P99Us, rows["kTLS-sw"][8].P99Us)
	}
	if rows["SMT-hw"][8].P99Us > rows["kTLS-hw"][8].P99Us*1.03 {
		t.Errorf("iodepth 8: SMT-hw P99 should not exceed kTLS-hw")
	}
	// Device latency dominates: all P50s well above the 65µs media time.
	for name, m := range rows {
		if m[1].P50Us < 65 {
			t.Errorf("%s: P50 %.1fµs below SSD media latency", name, m[1].P50Us)
		}
	}
}

// testFig10Shape checks §5.5: SMT-sw 5–18 % and SMT-hw 12–18 % lower
// latency than TCPLS. Runs under TestExperiments, cells in parallel.
func testFig10Shape(t *testing.T) {
	sizes := []int{64, 1024, 16384}
	lineup := []StackSpec{mustStack("TCPLS"), mustStack("SMT-sw"), mustStack("SMT-hw")}
	n := len(lineup)
	rows := make([]RTTRow, len(sizes)*n)
	ForEach(len(rows), 0, func(i int) {
		rows[i] = must(MeasureRTT(must(BuildSystem(lineup[i%n])), sizes[i/n], 0, false, 3))
	})
	for si, size := range sizes {
		tls := rows[si*n]
		ssw := rows[si*n+1]
		shw := rows[si*n+2]
		t.Logf("%6dB TCPLS=%v SMT-sw=%v SMT-hw=%v", size, tls.MeanRTT, ssw.MeanRTT, shw.MeanRTT)
		gSW := ratio(float64(tls.MeanRTT), float64(ssw.MeanRTT))
		gHW := ratio(float64(tls.MeanRTT), float64(shw.MeanRTT))
		if gSW < 0.04 || gSW > 0.30 {
			t.Errorf("size %d: SMT-sw vs TCPLS gain %.1f%% outside 5–18%% band", size, gSW*100)
		}
		if gHW < gSW {
			t.Errorf("size %d: SMT-hw should gain at least as much as SMT-sw", size)
		}
		if gHW > 0.35 {
			t.Errorf("size %d: SMT-hw gain %.1f%% implausibly large", size, gHW*100)
		}
	}
}

// testFig11Shape: TSO beats software segmentation, more with size; the
// penalty stays moderate (§7: smaller than it would be for TCP). Runs
// under TestExperiments, via the registered fig11 sweep in parallel.
func testFig11Shape(t *testing.T) {
	fig11, ok := Lookup("fig11")
	if !ok {
		t.Fatal("fig11 not registered")
	}
	var rows []RTTRow
	for _, res := range Run(fig11, RunOptions{}) {
		if res.Err != "" {
			t.Fatalf("point %s failed: %s", res.Key, res.Err)
		}
		size := 0
		fmt.Sscanf(res.Labels["size"], "%d", &size)
		rows = append(rows, RTTRow{
			System:  res.Labels["system"],
			Size:    size,
			MeanRTT: sim.Time(res.Values["mean_rtt_ns"]),
		})
	}
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		if byKey[r.System] == nil {
			byKey[r.System] = map[int]float64{}
		}
		byKey[r.System][r.Size] = float64(r.MeanRTT)
		t.Logf("%-16s %5dB %v", r.System, r.Size, r.MeanRTT)
	}
	for _, size := range Fig11Sizes {
		with := byKey["SMT-HW-TSO"][size]
		without := byKey["SMT-HW-w/o-TSO"][size]
		if size > 1500 && without <= with {
			t.Errorf("size %d: disabling TSO should cost latency", size)
		}
		if pen := without/with - 1; pen > 0.35 {
			t.Errorf("size %d: no-TSO penalty %.0f%% too large (§7 says moderate)", size, pen*100)
		}
	}
}

// testFig2Scenarios: the three Figure 2 outcomes.
func testFig2Scenarios(t *testing.T) {
	if len(fig2Scenarios) != 3 {
		t.Fatal("want 3 scenarios")
	}
	rows := []Fig2Row{Fig2Scenario(0), Fig2Scenario(1), Fig2Scenario(2)}
	if !rows[0].Decrypted || rows[0].Corrupted != 0 {
		t.Errorf("in-seq: %+v", rows[0])
	}
	if rows[1].Decrypted || rows[1].Corrupted != 1 {
		t.Errorf("out-seq should corrupt: %+v", rows[1])
	}
	if !rows[2].Decrypted || rows[2].Resyncs != 1 || rows[2].Corrupted != 0 {
		t.Errorf("out-resync should repair: %+v", rows[2])
	}
}

// testFig12KeyExchange: end-to-end over the SMT socket: 0-RTT init beats
// 1-RTT; derived keys actually carry the first RPC. Runs under
// TestExperiments, modes in parallel.
func testFig12KeyExchange(t *testing.T) {
	modes := []handshake.Mode{
		handshake.Init1RTT, handshake.Init0RTT, handshake.Init0RTTFS,
		handshake.Rsmp, handshake.RsmpFS,
	}
	rows := make([]Fig12Row, len(modes))
	ForEach(len(modes), 0, func(i int) {
		rows[i], _ = MeasureKeyExchange(modes[i], 1024, 5)
	})
	init1, init0, init0fs, rsmp, rsmpFS := rows[0], rows[1], rows[2], rows[3], rows[4]
	for _, r := range []Fig12Row{init1, init0, init0fs, rsmp, rsmpFS} {
		t.Logf("%-10s %.0fµs", r.Mode, r.TimeUs)
		if r.TimeUs <= 0 {
			t.Fatalf("%s: exchange+RPC never completed", r.Mode)
		}
	}
	if g := 1 - init0.TimeUs/init1.TimeUs; g < 0.45 || g > 0.60 {
		t.Errorf("Init vs 1RTT gain %.0f%% outside 52–55%% band", g*100)
	}
	if g := 1 - init0fs.TimeUs/init1.TimeUs; g < 0.30 || g > 0.48 {
		t.Errorf("Init-FS vs 1RTT gain %.0f%% outside 37–44%% band", g*100)
	}
	if m := rsmpFS.TimeUs - rsmp.TimeUs; m < 320 || m > 400 {
		t.Errorf("Rsmp-FS − Rsmp = %.0fµs outside 338–387µs", m)
	}
}

// testTable1AndFig5 sanity-checks the static artifacts.
func testTable1AndFig5(t *testing.T) {
	if rows := Table1(); len(rows) != 10 || rows[4].System != "SMT" {
		t.Fatal("Table 1 rows wrong")
	}
	if rows := Fig5(); len(rows) != 10 {
		t.Fatal("Fig 5 rows wrong")
	}
}
