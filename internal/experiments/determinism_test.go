package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// This file holds the cross-experiment determinism contract: any
// registry experiment, run twice with the same seeds — serially or
// across worker pools of any width — must produce byte-identical JSON
// artifacts. Every point builds its own World with its own engine and
// RNG stream, so neither scheduling nor worker count may leak into
// results. The fabric experiments (incast, multiclient) and the
// open-loop load sweep (loadsweep, whose Poisson arrival process draws
// from the per-world seeded RNG) are covered by the same loop as the
// §5 figures; TestDeterminismCoverage pins that they stay registered.

// artifactJSON runs pts and serializes the results the way a JSON
// artifact would, with wall-clock timing stripped (the only field
// allowed to differ between runs).
func artifactJSON(t *testing.T, e Experiment, pts []Point, workers int) []byte {
	t.Helper()
	res := RunPoints(e, pts, RunOptions{Workers: workers})
	for i := range res {
		if res[i].Err != "" {
			t.Fatalf("%s point %q failed: %s", e.Name(), res[i].Key, res[i].Err)
		}
		res[i].ElapsedMs = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// spreadPoints picks up to n points spanning the decomposition: always
// the first and last, evenly spaced in between — so boundary cells and
// interior cells are both exercised without running the whole sweep.
func spreadPoints(pts []Point, n int) []Point {
	if len(pts) <= n {
		return pts
	}
	if n <= 1 {
		return pts[:1]
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return out
}

func TestDeterministicArtifacts(t *testing.T) {
	maxPts := 6
	workerCounts := []int{4, 13}
	if testing.Short() {
		maxPts = 2
		workerCounts = []int{4}
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; machine-dependent by design")
			}
			t.Parallel()
			pts := spreadPoints(e.Points(), maxPts)
			serial := artifactJSON(t, e, pts, 1)
			again := artifactJSON(t, e, pts, 1)
			if !bytes.Equal(serial, again) {
				t.Fatalf("two serial runs differ:\n%s\n%s", serial, again)
			}
			for _, w := range workerCounts {
				par := artifactJSON(t, e, pts, w)
				if !bytes.Equal(serial, par) {
					t.Errorf("workers=%d differs from serial run:\n%s\n%s", w, par, serial)
				}
			}
		})
	}
}

// TestDeterminismCoverage pins that the experiments whose determinism
// is least obvious — the fabric sweeps, the randomized open-loop load
// sweep, the fault-injecting chaos battery, and the live-handshake
// churn sweep (real ECDH key generation seeded from the engine RNG) —
// are in the registry TestDeterministicArtifacts walks.
func TestDeterminismCoverage(t *testing.T) {
	for _, name := range []string{"incast", "multiclient", "loadsweep", "chaos", "churn"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("%s not registered; determinism battery no longer covers it", name)
		}
	}
}

// TestSpreadPoints pins the helper's contract so the determinism test
// keeps covering decomposition boundaries.
func TestSpreadPoints(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{Index: i}
	}
	got := spreadPoints(pts, 4)
	want := []int{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Index != w {
			t.Errorf("spread[%d] = %d, want %d", i, got[i].Index, w)
		}
	}
	if n := len(spreadPoints(pts[:3], 4)); n != 3 {
		t.Errorf("small list should pass through, got %d", n)
	}
	if got := spreadPoints(pts, 1); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("n=1 should return the first point, got %v", got)
	}
}
