// Command benchsmoke runs the repository's key benchmarks in smoke mode
// (-benchtime 1x -benchmem by default) and emits a machine-readable
// JSON artifact — the BENCH_*.json perf trajectory — with ns/op,
// B/op and allocs/op per benchmark.
//
//	go run ./cmd/benchsmoke -pkgs ./internal/sim,./internal/core -benchtime 200ms -out bench-micro.json
//	go run ./cmd/benchsmoke -bench 'Experiment/^(fig6|loadsweep)$' -pkgs . -out bench-e2e.json
//
// Micro-benchmarks want a warm run (-benchtime 200ms): at 1x they time
// one cold call, pool warm-up included. The end-to-end sweeps under
// BenchmarkExperiment run at 1x. Go matches -bench patterns per "/"
// level, so the two sets take separate invocations.
//
// Passing -compare with a previous artifact adds per-benchmark baseline
// numbers and wall-clock deltas, which is how a PR records its
// improvement over main. Passing -count N runs every benchmark N times
// and reports per-benchmark medians: single-shot -benchtime 1x numbers
// jitter by tens of percent on shared CI machines, and the median of
// even three runs is stable enough to gate regressions on.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench is the key micro-benchmark set: the allocation-sensitive
// codec and engine scheduling paths plus the wheel-vs-heap comparison.
const defaultBench = "BenchmarkCodecEncode|BenchmarkCodecEncodeHW|BenchmarkCodecDecode|BenchmarkEngineScheduleCancel|BenchmarkEngineScheduleRun|BenchmarkEngineDeepPending|BenchmarkHeapDeepPending"

// Artifact is the emitted document.
type Artifact struct {
	Version   int         `json:"version"`
	Tool      string      `json:"tool"`
	GoVersion string      `json:"go_version"`
	CreatedAt string      `json:"created_at"`
	BenchTime string      `json:"benchtime"`
	Count     int         `json:"count,omitempty"`   // runs per benchmark; values are medians when > 1
	Compare   string      `json:"compare,omitempty"` // path of the baseline artifact, if any
	Benchs    []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Baseline/Delta are filled from -compare: negative DeltaPct means
	// faster than the baseline.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	DeltaPct        float64 `json:"delta_pct,omitempty"`
}

func main() {
	out := flag.String("out", "bench.json", "output artifact path")
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	pkgs := flag.String("pkgs", "./...", "comma-separated packages to benchmark")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	count := flag.Int("count", 1, "runs per benchmark; the artifact records per-benchmark medians")
	compare := flag.String("compare", "", "previous artifact to diff against")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchsmoke: -count must be >= 1")
		os.Exit(1)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem"}
	if *count > 1 {
		args = append(args, fmt.Sprintf("-count=%d", *count))
	}
	args = append(args, strings.Split(*pkgs, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: go %s: %v\n%s", strings.Join(args, " "), err, outBytes)
		os.Exit(1)
	}

	a := &Artifact{
		Version:   1,
		Tool:      "benchsmoke",
		GoVersion: runtime.Version(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		BenchTime: *benchtime,
		Count:     *count,
		Benchs:    medians(parse(outBytes)),
	}
	if len(a.Benchs) == 0 {
		fmt.Fprintln(os.Stderr, "benchsmoke: no benchmark lines matched; check -bench/-pkgs")
		os.Exit(1)
	}
	if *compare != "" {
		if err := applyBaseline(a, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke:", err)
			os.Exit(1)
		}
	}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	for _, b := range a.Benchs {
		delta := ""
		if b.BaselineNsPerOp > 0 {
			delta = fmt.Sprintf("  (%+.1f%% vs baseline)", b.DeltaPct)
		}
		fmt.Printf("%-32s %14.0f ns/op %10.0f B/op %8.0f allocs/op%s\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, delta)
	}
	fmt.Println("wrote", *out)
}

// parse extracts benchmark result lines from `go test -bench` output.
// Package context comes from the trailing "ok  <pkg>  <time>" lines,
// which appear after that package's benchmarks.
func parse(out []byte) []Benchmark {
	var (
		benchs  []Benchmark
		pending []int // indices awaiting their package's "ok" line
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) >= 2 && (fields[0] == "ok" || fields[0] == "FAIL") {
			for _, i := range pending {
				benchs[i].Pkg = fields[1]
			}
			pending = pending[:0]
			continue
		}
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		b := Benchmark{Name: name}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "MB/s":
				b.MBPerS = v
			}
		}
		if b.NsPerOp > 0 {
			pending = append(pending, len(benchs))
			benchs = append(benchs, b)
		}
	}
	return benchs
}

// medians collapses repeated result lines (-count > 1) into one entry
// per benchmark holding the per-metric median, in first-appearance
// order. With a single run per benchmark it is the identity.
func medians(benchs []Benchmark) []Benchmark {
	type key struct{ name, pkg string }
	groups := make(map[key][]Benchmark, len(benchs))
	var order []key
	for _, b := range benchs {
		k := key{b.Name, b.Pkg}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		m := g[0]
		m.NsPerOp = median(g, func(b Benchmark) float64 { return b.NsPerOp })
		m.BytesPerOp = median(g, func(b Benchmark) float64 { return b.BytesPerOp })
		m.AllocsPerOp = median(g, func(b Benchmark) float64 { return b.AllocsPerOp })
		m.MBPerS = median(g, func(b Benchmark) float64 { return b.MBPerS })
		out = append(out, m)
	}
	return out
}

func median(g []Benchmark, get func(Benchmark) float64) float64 {
	vs := make([]float64, len(g))
	for i, b := range g {
		vs[i] = get(b)
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 1 {
		return vs[n/2]
	} else {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
}

// applyBaseline fills Baseline/Delta fields from a previous artifact.
func applyBaseline(a *Artifact, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev Artifact
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	base := make(map[string]float64, len(prev.Benchs))
	for _, b := range prev.Benchs {
		base[b.Name] = b.NsPerOp
	}
	a.Compare = path
	for i := range a.Benchs {
		if ns, ok := base[a.Benchs[i].Name]; ok && ns > 0 {
			a.Benchs[i].BaselineNsPerOp = ns
			a.Benchs[i].DeltaPct = (a.Benchs[i].NsPerOp - ns) / ns * 100
		}
	}
	return nil
}
