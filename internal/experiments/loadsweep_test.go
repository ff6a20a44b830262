package experiments

import (
	"sync"
	"testing"
)

// loadSweepByName measures the whole lineup at one offered load,
// indexed by system name.
func loadSweepByName(t *testing.T, load float64) map[string]LoadSweepRow {
	t.Helper()
	var mu sync.Mutex
	rows := map[string]LoadSweepRow{}
	lineup := DefaultLineup()
	ForEach(len(lineup), 0, func(i int) {
		r := must(MeasureLoadSweep(must(BuildFabric(lineup[i])), load, LoadSweepSeed(load)))
		mu.Lock()
		rows[r.System] = r
		mu.Unlock()
	})
	return rows
}

// TestLoadSweepSeparation is the acceptance point: at the highest swept
// load, the open loop keeps offering traffic the TCP-family stacks can
// no longer absorb (RTO stalls on shared-buffer drops, crypto-throttled
// kTLS, head-of-line blocking on connections), so their p99 slowdown
// runs away, while the message transports (Homa, SMT) stay within a
// bounded queueing regime — at least 2x apart.
func TestLoadSweepSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	top := LoadSweepLoads[len(LoadSweepLoads)-1]
	rows := loadSweepByName(t, top)

	tcpFam := []string{"TCP", "kTLS-sw", "kTLS-hw"}
	msgFam := []string{"Homa", "SMT-sw", "SMT-hw"}

	for name, r := range rows {
		if r.N == 0 || r.Issued == 0 {
			t.Fatalf("%s: empty point (issued=%d n=%d)", name, r.Issued, r.N)
		}
		// Slowdown is observed/ideal; the median cannot be (meaningfully)
		// below the unloaded ideal.
		if r.P50Slowdown < 0.9 {
			t.Errorf("%s: p50 slowdown %.3f < 1; ideal baseline is broken", name, r.P50Slowdown)
		}
		if r.P99Slowdown < r.P50Slowdown {
			t.Errorf("%s: p99 slowdown %.2f below p50 %.2f", name, r.P99Slowdown, r.P50Slowdown)
		}
		// Goodput can never exceed what was offered: both counters share
		// the [warm, stop) issue boundary.
		if r.GoodputGbps > r.OfferedGbps || r.N > r.Issued {
			t.Errorf("%s: goodput %.1f Gbps / n=%d exceeds offered %.1f Gbps / issued=%d",
				name, r.GoodputGbps, r.N, r.OfferedGbps, r.Issued)
		}
	}

	// Tail separation: every TCP-family p99 slowdown is at least 2x
	// every message transport's.
	for _, s := range tcpFam {
		for _, m := range msgFam {
			if rows[s].P99Slowdown < 2*rows[m].P99Slowdown {
				t.Errorf("tail separation missing at load=%.2f: %s p99 slowdown %.1f vs %s %.1f",
					top, s, rows[s].P99Slowdown, m, rows[m].P99Slowdown)
			}
		}
	}

	// The TCP family is also goodput-collapsed at this load: the message
	// transports deliver at least 2x their goodput.
	for _, m := range msgFam {
		for _, s := range tcpFam {
			if rows[m].GoodputGbps < 2*rows[s].GoodputGbps {
				t.Errorf("goodput separation missing: %s=%.1f Gbps vs %s=%.1f Gbps",
					m, rows[m].GoodputGbps, s, rows[s].GoodputGbps)
			}
		}
	}
}

// TestLoadSweepLowLoadSane: at the lowest swept load the fabric is
// uncongested, so every system delivers its offered load and the median
// completion sits at the unloaded ideal.
func TestLoadSweepLowLoadSane(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	rows := loadSweepByName(t, LoadSweepLoads[0])
	for name, r := range rows {
		if r.GoodputGbps < 0.95*r.OfferedGbps {
			t.Errorf("%s: goodput %.2f Gbps below offered %.2f at low load",
				name, r.GoodputGbps, r.OfferedGbps)
		}
		if r.P50Slowdown < 0.9 || r.P50Slowdown > 1.5 {
			t.Errorf("%s: p50 slowdown %.3f at low load, want ~1", name, r.P50Slowdown)
		}
		if r.SwitchDrops != 0 {
			t.Errorf("%s: %d switch drops at 10%% load", name, r.SwitchDrops)
		}
	}
}

// TestLoadSweepPercent pins the rounding of load fractions into key
// percentages and seeds: float products like 0.29*100 sit just below
// the integer and must round, not truncate.
func TestLoadSweepPercent(t *testing.T) {
	for load, want := range map[float64]int{0.1: 10, 0.29: 29, 0.3: 30, 0.57: 57, 0.6: 60} {
		if got := LoadSweepPercent(load); got != want {
			t.Errorf("LoadSweepPercent(%v) = %d, want %d", load, got, want)
		}
	}
	if got := LoadSweepSeed(0.29); got != 11029 {
		t.Errorf("LoadSweepSeed(0.29) = %d, want 11029", got)
	}
}

// TestMeasureUnloadedIdeal pins the slowdown denominator's shape: one
// positive ideal per size in the mix's support, monotone in size.
func TestMeasureUnloadedIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run; run without -short")
	}
	t.Parallel()
	dist := LoadSweepDist()
	ideal := must(measureUnloadedIdeal(must(BuildFabric(mustStack("Homa"))), dist, 11010, defaultLoadSweepParams()))
	if len(ideal) != len(dist.Sizes()) {
		t.Fatalf("ideal covers %d sizes, support has %d", len(ideal), len(dist.Sizes()))
	}
	prev := 0.0
	for _, size := range dist.Sizes() {
		v, ok := ideal[size]
		if !ok || v <= 0 {
			t.Fatalf("no ideal for size %d: %v", size, ideal)
		}
		if v < prev {
			t.Errorf("ideal not monotone: ideal[%d]=%v below smaller size's %v", size, v, prev)
		}
		prev = v
	}
	// An unloaded 256B echo completes in tens of microseconds, not
	// milliseconds: catches a baseline accidentally measured under load.
	if ideal[256] > 50_000 {
		t.Errorf("unloaded 256B ideal %v ns is not unloaded", ideal[256])
	}
}
