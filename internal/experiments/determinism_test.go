package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// This file holds the cross-experiment determinism contract: any
// registry experiment, run twice with the same seeds — serially or
// across worker pools of any width — must produce byte-identical JSON
// artifacts, and every point's Values must match the digest pinned in
// testdata/golden.json. Every point builds its own World with its own
// engine and RNG stream, so neither scheduling nor worker count may leak
// into results. The fabric experiments (incast, multiclient) and the
// open-loop load sweep (loadsweep, whose Poisson arrival process draws
// from the per-world seeded RNG) are covered by the same loop as the
// §5 figures; TestDeterminismCoverage pins that they stay registered.
//
// It is also the registry-wide wire audit: outside -update, each point
// runs audited exactly once, its digest must still match the golden
// (the tap is a pure observer), and its worlds must settle clean — zero
// violations, conservation at quiescence, zero outstanding packets, and
// packets observed in every world.

var update = flag.Bool("update", false, "rewrite testdata/golden.json from one pass over every registry point")

// goldenFile pins one Values digest per registry point (experiment →
// point key → digest). Runs compared only with each other cannot see a
// change that moves every run the same way; the pinned digests can.
// table2 is absent: it times real crypto on the host.
const goldenFile = "testdata/golden.json"

// valuesDigest is the SHA-256 of a point's Values in canonical form:
// keys sorted, one "key=value" line per key with the value in the
// shortest round-tripping decimal.
func valuesDigest(v Values) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(v[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analytic names the experiments whose points build no World, so an
// audited run settles none of their worlds; every other point must
// settle at least one.
var analytic = map[string]bool{"fig2": true, "fig5": true, "table1": true}

// pointResults runs pts under opts and fails the test on any point
// error — in an audited run, a failed settlement included. Wall-clock
// timing, the only field allowed to differ between runs, is zeroed.
func pointResults(t *testing.T, e Experiment, pts []Point, opts RunOptions) []Result {
	t.Helper()
	res := RunPoints(e, pts, opts)
	for i := range res {
		r := &res[i]
		if r.Err != "" {
			t.Fatalf("%s point %q failed: %s", e.Name(), r.Key, r.Err)
		}
		if opts.Audit && (r.Audit == nil || (r.Audit.Worlds == 0) != analytic[e.Name()]) {
			t.Fatalf("%s point %q: audited run settled %+v (analytic experiment: %v)", e.Name(), r.Key, r.Audit, analytic[e.Name()])
		}
		r.ElapsedMs = 0
	}
	return res
}

// artifactJSON runs pts under opts and serializes the results the way a
// JSON artifact would, with wall-clock timing stripped.
func artifactJSON(t *testing.T, e Experiment, pts []Point, opts RunOptions) []byte {
	t.Helper()
	b, err := json.Marshal(pointResults(t, e, pts, opts))
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

// otherPoints returns the points of all that are not in some.
func otherPoints(all, some []Point) []Point {
	seen := make(map[int]bool, len(some))
	for _, p := range some {
		seen[p.Index] = true
	}
	var out []Point
	for _, p := range all {
		if !seen[p.Index] {
			out = append(out, p)
		}
	}
	return out
}

// readGolden loads the pinned digests.
func readGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	return g
}

// checkGolden compares each result's Values digest with the pinned one
// and names every point that moved.
func checkGolden(t *testing.T, want map[string]string, res []Result) {
	t.Helper()
	for _, r := range res {
		got := valuesDigest(r.Values)
		switch w, ok := want[r.Key]; {
		case !ok:
			t.Errorf("%s: no golden digest (rerun with -update)", r.Key)
		case w != got:
			t.Errorf("%s: Values moved: digest %.12s, golden %.12s", r.Key, got, w)
		}
	}
}

// TestDeterministicArtifacts runs a spread of each experiment's points
// serially twice and across worker pools, requires byte-identical
// artifacts, and checks the spread's digests against the golden file.
// The widest pool's run is audited, so the spread's audited artifact
// must equal the plain serial one. In full mode it also runs every
// other point once, audited, and checks it, so each registry point is
// pinned and audited; -update rewrites the golden file from that full
// pass with nothing audited.
func TestDeterministicArtifacts(t *testing.T) {
	maxPts := 6
	workerCounts := []int{4, 13}
	if testing.Short() {
		maxPts = 2
		workerCounts = []int{4}
	}
	full := !testing.Short() || *update
	golden := map[string]map[string]string{}
	var mu sync.Mutex
	if *update {
		t.Cleanup(func() {
			b, err := json.MarshalIndent(golden, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	} else {
		golden = readGolden(t)
		for name := range golden {
			if _, ok := Lookup(name); !ok || name == "table2" {
				t.Errorf("golden file pins %q, which is not a deterministic registry experiment", name)
			}
		}
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; machine-dependent by design")
			}
			t.Parallel()
			all := e.Points()
			pts := spreadPoints(all, maxPts)
			res := pointResults(t, e, pts, RunOptions{Workers: 1})
			serial, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			again := artifactJSON(t, e, pts, RunOptions{Workers: 1})
			if !bytes.Equal(serial, again) {
				t.Fatalf("two serial runs differ:\n%s\n%s", serial, again)
			}
			for i, w := range workerCounts {
				audited := !*update && i == len(workerCounts)-1
				par := artifactJSON(t, e, pts, RunOptions{Workers: w, Audit: audited})
				if !bytes.Equal(serial, par) {
					t.Errorf("workers=%d (audited: %v) differs from serial run:\n%s\n%s", w, audited, par, serial)
				}
			}
			if full {
				res = append(res, pointResults(t, e, otherPoints(all, pts), RunOptions{Audit: !*update})...)
			}
			if *update {
				digests := make(map[string]string, len(res))
				for _, r := range res {
					digests[r.Key] = valuesDigest(r.Values)
				}
				mu.Lock()
				golden[e.Name()] = digests
				mu.Unlock()
				return
			}
			want := golden[e.Name()]
			checkGolden(t, want, res)
			if full && len(want) != len(all) {
				t.Errorf("golden file pins %d points, experiment has %d", len(want), len(all))
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
