package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"smt/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden.json from one seed-0 pass of every workload (about 15 s)")

// registryPoints returns the registry points a workload reproduces.
func registryPoints(t *testing.T, w workload) (experiments.Experiment, []experiments.Point) {
	t.Helper()
	e, ok := experiments.Lookup(w.Experiment)
	if !ok {
		t.Fatalf("%s: no registry experiment %q", w.Name, w.Experiment)
	}
	var pts []experiments.Point
	for _, p := range e.Points() {
		// rpc-small is the 64 B slice of fig7's size grid.
		if w.Name == "rpc-small" && !strings.Contains(p.Key, "/size=64/") {
			continue
		}
		pts = append(pts, p)
	}
	return e, pts
}

// TestGridMatchesRegistry pins every workload's grid to the registry's:
// the same keys in the same order with the same seeds, and for one cheap
// point per workload identical Values through both paths.
func TestGridMatchesRegistry(t *testing.T) {
	sample := map[string]string{
		"rtt":       "sys=TCP/size=64",
		"rpc-small": "sys=TCP/size=64/conc=50",
		"loadsweep": "sys=Homa/load=10",
		"churn":     "sys=SMT-sw/rate=2000",
	}
	for _, w := range workloads {
		e, reg := registryPoints(t, w)
		pts := w.Points()
		if len(pts) != len(reg) {
			t.Fatalf("%s: %d points, registry %s has %d", w.Name, len(pts), w.Experiment, len(reg))
		}
		ran := false
		for i, p := range pts {
			if p.Key != reg[i].Key || p.Seed != reg[i].Seed {
				t.Fatalf("%s point %d: %s seed %d, registry %s seed %d", w.Name, i, p.Key, p.Seed, reg[i].Key, reg[i].Seed)
			}
			if p.Key != sample[w.Name] {
				continue
			}
			ran = true
			got, err := p.Run(p.Seed)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, p.Key, err)
			}
			want := e.Run(reg[i])
			if want.Err != "" {
				t.Fatalf("%s %s: registry: %s", w.Name, p.Key, want.Err)
			}
			if !reflect.DeepEqual(got, want.Values) {
				t.Errorf("%s %s: bench Values %v, registry %v", w.Name, p.Key, got, want.Values)
			}
		}
		if !ran {
			t.Errorf("%s: sample point %q not in the grid", w.Name, sample[w.Name])
		}
	}
}

// TestGoldenCoverage checks that golden.json holds a digest for every
// point of every workload and nothing else. With -update it first
// rewrites the file from one seed-0 pass.
func TestGoldenCoverage(t *testing.T) {
	if *update {
		g := map[string]map[string]string{}
		for _, w := range workloads {
			g[w.Name] = map[string]string{}
			for _, p := range w.Points() {
				v, err := p.Run(p.Seed)
				if err != nil {
					t.Fatalf("%s %s: %v", w.Name, p.Key, err)
				}
				g[w.Name][p.Key] = digest(v)
			}
		}
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		goldenJSON = b
	}
	g, err := goldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		pts := w.Points()
		if len(g[w.Name]) != len(pts) {
			t.Errorf("%s: %d goldens for %d points", w.Name, len(g[w.Name]), len(pts))
		}
		for _, p := range pts {
			if len(g[w.Name][p.Key]) != 64 {
				t.Errorf("%s %s: no golden digest", w.Name, p.Key)
			}
		}
	}
}

// TestCheckerRejectsWrongValues: a point whose Values differ from the
// golden, or that change between passes, counts as failed.
func TestCheckerRejectsWrongValues(t *testing.T) {
	w, _ := lookupWorkload("rtt")
	p := point{Key: "k"}
	good := experiments.Values{"n": 200, "mean_rtt_ns": 1}
	c := &checker{w: w, golden: map[string]string{"k": digest(good)}, first: map[string]string{}}
	if err := c.check(p, good, nil); err != nil {
		t.Fatalf("golden Values rejected: %v", err)
	}
	if err := c.check(p, experiments.Values{"n": 200, "mean_rtt_ns": 1.0000001}, nil); err == nil {
		t.Error("Values off the golden accepted")
	}
	c = &checker{w: w, first: map[string]string{}}
	if err := c.check(p, good, nil); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	if err := c.check(p, experiments.Values{"n": 201, "mean_rtt_ns": 1}, nil); err == nil {
		t.Error("Values that changed between passes accepted")
	}
	c = &checker{w: w, first: map[string]string{}}
	if err := c.check(p, experiments.Values{"n": 0}, nil); err == nil {
		t.Error("a point with no completed RPC accepted")
	}
}

// TestTraceAttribution pins the nearest-repository-frame rule on a
// checked-in `go tool pprof -traces -unit=ns` capture of the churn and
// rtt workloads.
func TestTraceAttribution(t *testing.T) {
	f, err := os.Open("testdata/cpu.traces")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 50 {
		t.Fatalf("parsed %d samples", len(samples))
	}
	// nearest is the first repository frame walking up from the leaf.
	nearest := func(frames []string) string {
		for _, f := range frames {
			if strings.HasPrefix(f, "smt/internal/") {
				return f
			}
		}
		return ""
	}
	cases := []struct {
		name    string
		frame   string // a frame the stack contains
		nearest string // prefix of its nearest repository frame; "" for none
		layer   string
	}{
		{"AES-GCM charged to the record layer", "crypto/internal/fips140/aes/gcm.", "smt/internal/tlsrec.", "tlsrec"},
		{"P-256 charged to the handshake", "crypto/internal/fips140/nistec.", "smt/internal/handshake.", "handshake"},
		{"background marking is GC", "runtime.gcBgMarkWorker", "", "runtime.gc"},
		{"mallocgc charged to its homa caller", "runtime.mallocgc", "smt/internal/homa.(*Socket).Send", "homa"},
	}
	for _, c := range cases {
		n := 0
		for _, s := range samples {
			has := false
			for _, f := range s.frames {
				has = has || strings.HasPrefix(f, c.frame)
			}
			near := nearest(s.frames)
			if !has || (c.nearest == "" && near != "") || !strings.HasPrefix(near, c.nearest) {
				continue
			}
			n++
			if got := layerOf(s.frames); got != c.layer {
				t.Errorf("%s: stack charged to %s, want %s: %v", c.name, got, c.layer, s.frames)
			}
		}
		if n == 0 {
			t.Errorf("%s: fixture has no such stack", c.name)
		}
	}
	var sum float64
	by := shares(attribute(samples))
	for _, l := range layers {
		sum += by[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
	if len(by) != len(layers) {
		t.Errorf("%d layer shares, want %d", len(by), len(layers))
	}
}

// TestSpeedScaling pins the reference-speed conversion: an interval is
// scaled by the median slice within speedWindow of its midpoint, or of
// the nearest minSlices when fewer lie that close.
func TestSpeedScaling(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	l := &speedLog{}
	for i, d := range []time.Duration{refSlice, refSlice, refSlice, 2 * refSlice, 2 * refSlice, 2 * refSlice} {
		// Three reference-speed slices at 0-0.2 s, three slow ones at 10-10.2 s.
		sec := 0.1 * float64(i%3)
		if i >= 3 {
			sec += 10
		}
		l.slices = append(l.slices, timed{at(sec), d})
	}
	iv := func(sec float64) timed { return timed{at(sec), time.Second} }
	if got := l.scale(iv(0.1)); got != time.Second {
		t.Errorf("interval at reference speed scaled to %v, want 1s", got)
	}
	want := time.Duration(float64(time.Second) * math.Pow(0.5, elasticity))
	if got := l.scale(iv(10.1)); got != want {
		t.Errorf("interval at half speed scaled to %v, want %v", got, want)
	}
	// Nothing within the window at 6 s: the three nearest slices (the
	// slow ones) set the speed.
	if got := l.scale(iv(6)); got != want {
		t.Errorf("interval far from every slice scaled to %v, want %v", got, want)
	}
}

// TestVerdict drives the comparison rule on synthetic runs.
func TestVerdict(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same runs", base, base, true, unchanged},
		{"5% slower within a 10% bound", base, scale(base, 1.05), true, unchanged},
		{"20% slower", base, scale(base, 1.2), true, regressed},
		{"20% faster", base, scale(base, 0.8), true, improved},
		{"higher-is-better metric grew", base, scale(base, 1.2), false, improved},
		{"higher-is-better metric shrank", base, scale(base, 0.8), false, regressed},
		{"spread wider than the bound", noisy, scale(noisy, 1.15), true, unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.1, c.lower); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		spec
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	got := map[string]string{}
	for _, m := range s.EndToEnd {
		got[m.Name] = m.Unit
	}
	wantE2E := map[string]string{}
	for _, m := range endToEnd {
		wantE2E[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, wantE2E) {
		t.Errorf("end_to_end %v, code %v", got, wantE2E)
	}
	got = map[string]string{}
	for _, m := range s.PerLayer {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, perLayerUnits()) {
		t.Errorf("per_layer %v\ncode %v", got, perLayerUnits())
	}
}
