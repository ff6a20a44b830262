package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"smt/internal/experiments"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// (bench_test.go checks that the two agree).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, each a median over the
// run's passes. The times are scaled to the reference speed (calib.go).
var endToEnd = []metricDef{
	{"wall_s", "s"},    // host wall time of one pass over the workload's grid
	{"cpu_s", "s"},     // user+sys CPU of the process during one pass
	{"alloc_mb", "MB"}, // heap bytes allocated during one pass, in 1e6 bytes
	{"setup_s", "s"},   // building and wiring one pass's worlds, no traffic
}

// setupRepeats is how many times a pass builds each point's worlds
// before running it, for setup_s. Building one point's worlds takes
// 0.03-0.5 ms, so the repeats add at most 2 % to a pass.
const setupRepeats = 3

// record is everything one run measured.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Passes    int               `json:"passes"`
	Points    int               `json:"points"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Every pass's wall time and CPU time scaled to the reference speed
	// (the metrics are their medians), as measured, and its allocation.
	PassWallS    []float64 `json:"pass_wall_s"`
	PassCPUS     []float64 `json:"pass_cpu_s"`
	PassRawWallS []float64 `json:"pass_raw_wall_s"`
	PassRawCPUS  []float64 `json:"pass_raw_cpu_s"`
	PassAllocMB  []float64 `json:"pass_alloc_mb"`
	// PassSpeed is each pass's scaled over raw wall time (calib.go):
	// below 1 when the machine ran slower than the reference.
	PassSpeed []float64 `json:"pass_speed"`
	// Every pass's set-up time, scaled and as measured: the sum over
	// points of the median of setupRepeats set-ups.
	PassSetupS    []float64 `json:"pass_setup_s"`
	PassRawSetupS []float64 `json:"pass_raw_setup_s"`
	// RPCs is the RPCs one pass completes, summed over its points.
	RPCs float64 `json:"rpcs"`
	// PointMs is each point's wall time in every pass, by point key.
	PointMs map[string][]float64 `json:"point_ms"`
	// Digests is the SHA-256 of each point's canonical Values.
	Digests map[string]string `json:"digests"`
	// Traced runs only.
	Spans  []span              `json:"spans,omitempty"`
	Ladder map[string]coldWarm `json:"ladder,omitempty"`

	values map[string]experiments.Values // latest Values by point key
}

// results is the file -out writes and -compare reads.
type results struct {
	Meta meta      `json:"meta"`
	Runs []*record `json:"runs"`
}

type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CreatedAt  string `json:"created_at"`
}

func newMeta() meta {
	return meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// writeResults writes one run per line, so a file of many runs stays
// small and diffs by run.
func writeResults(path string, runs []*record) error {
	m, err := json.Marshal(newMeta())
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"meta\": %s,\n\"runs\": [\n", m)
	for i, r := range runs {
		rb, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(rb)
		if i < len(runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

//go:embed golden.json
var goldenJSON []byte

// goldens maps workload → point key → Values digest at seed offset 0.
func goldens() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest is the SHA-256 of a point's Values in canonical form: keys
// sorted, each value in the shortest round-tripping decimal.
func digest(v experiments.Values) string {
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

// checker decides whether one execution of a point reproduced the right
// numbers. At seed offset 0 the Values must match the golden digest; at
// any seed they must repeat exactly from pass to pass and complete at
// least one RPC.
type checker struct {
	w      workload
	golden map[string]string // nil unless the seed offset is 0
	first  map[string]string
}

func (c *checker) check(p point, v experiments.Values, err error) error {
	if err != nil {
		return err
	}
	d := digest(v)
	if c.golden != nil {
		want, ok := c.golden[p.Key]
		if !ok {
			return fmt.Errorf("no golden digest")
		}
		if d != want {
			return fmt.Errorf("Values digest %.12s, golden %.12s", d, want)
		}
	}
	if prev, ok := c.first[p.Key]; ok && prev != d {
		return fmt.Errorf("Values changed between passes of one run")
	}
	c.first[p.Key] = d
	if c.w.RPCs(v) <= 0 {
		return fmt.Errorf("completed no RPC")
	}
	return nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passStats is one pass's host cost. wall, cpu and setup are scaled to
// the reference speed, rawWall, rawCPU and rawSetup are as measured, and
// speed is wall over rawWall.
type passStats struct {
	wall, cpu, setup, rawWall, rawCPU, rawSetup, speed, allocMB, gcs float64
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (bytes, gcs uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// runPass runs every point once on this goroutine and checks it. Before
// each point it times setupRepeats set-ups of the point's worlds;
// calibration slices run between points. A pass's wall time, CPU and
// allocation are those of the points' Run calls alone.
func runPass(pts []point, offset int64, c *checker, rec *record, cal *calibrator, onPoint func(p point, start, end time.Time)) passStats {
	log := &speedLog{cal: cal}
	var runs []timed
	setups := make([][]timed, len(pts))
	var cpu time.Duration
	var allocs, gcs uint64
	for i, p := range pts {
		rec.Attempted++
		var err error
		for r := 0; r < setupRepeats && err == nil; r++ {
			t0 := time.Now()
			err = p.Setup(p.Seed + offset)
			setups[i] = append(setups[i], newTimed(t0, time.Since(t0)))
		}
		if err != nil {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("pass %d %s: setup: %v", rec.Passes, p.Key, err))
			continue
		}
		log.maybeSlice()
		alloc0, gc0 := heapAllocs()
		cpu0 := cpuTime()
		t0 := time.Now()
		v, err := p.Run(p.Seed + offset)
		t1 := time.Now()
		cpu += cpuTime() - cpu0
		alloc1, gc1 := heapAllocs()
		allocs += alloc1 - alloc0
		gcs += gc1 - gc0
		runs = append(runs, newTimed(t0, t1.Sub(t0)))
		rec.PointMs[p.Key] = append(rec.PointMs[p.Key], float64(t1.Sub(t0))/1e6)
		if onPoint != nil {
			onPoint(p, t0, t1)
		}
		if err := c.check(p, v, err); err != nil {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("pass %d %s: %v", rec.Passes, p.Key, err))
		} else {
			rec.Digests[p.Key] = digest(v)
			rec.values[p.Key] = v
		}
		log.maybeSlice()
	}
	var ps passStats
	for _, iv := range runs {
		ps.rawWall += iv.d.Seconds()
		ps.wall += log.scale(iv).Seconds()
	}
	// Each point's set-up is the median of its repeats.
	for _, reps := range setups {
		var raw, scaledS []float64
		for _, iv := range reps {
			raw = append(raw, iv.d.Seconds())
			scaledS = append(scaledS, log.scale(iv).Seconds())
		}
		ps.rawSetup += median(raw)
		ps.setup += median(scaledS)
	}
	ps.speed = 1
	if ps.rawWall > 0 {
		ps.speed = ps.wall / ps.rawWall
	}
	ps.rawCPU = cpu.Seconds()
	ps.cpu = ps.rawCPU * ps.speed
	ps.allocMB = float64(allocs) / 1e6
	ps.gcs = float64(gcs)
	return ps
}

// addPass appends a pass's numbers to the record.
func (r *record) addPass(p passStats) {
	r.Passes++
	r.PassWallS = append(r.PassWallS, p.wall)
	r.PassCPUS = append(r.PassCPUS, p.cpu)
	r.PassRawWallS = append(r.PassRawWallS, p.rawWall)
	r.PassRawCPUS = append(r.PassRawCPUS, p.rawCPU)
	r.PassSpeed = append(r.PassSpeed, p.speed)
	r.PassAllocMB = append(r.PassAllocMB, p.allocMB)
	r.PassSetupS = append(r.PassSetupS, p.setup)
	r.PassRawSetupS = append(r.PassRawSetupS, p.rawSetup)
}

// runWorkload is one run: whole passes until the time budget is spent
// (the last pass ends past it). A traced run alternates untraced and
// profiled passes and ends with the ladder.
func runWorkload(w workload, offset int64, seconds float64, traced bool) (*record, error) {
	pts := w.Points()
	rec := &record{
		Workload: w.Name, Seed: offset, Trace: traced, Points: len(pts),
		PointMs: map[string][]float64{}, Digests: map[string]string{},
		values: map[string]experiments.Values{},
	}
	c := &checker{w: w, first: map[string]string{}}
	if offset == 0 {
		g, err := goldens()
		if err != nil {
			return nil, err
		}
		c.golden = g[w.Name]
		if c.golden == nil {
			c.golden = map[string]string{}
		}
	}
	cal := newCalibrator()
	if traced {
		if err := runTraced(w, pts, offset, seconds, c, rec, cal); err != nil {
			return nil, err
		}
		return rec, nil
	}
	start := time.Now()
	for rec.Passes == 0 || time.Since(start).Seconds() < seconds {
		rec.addPass(runPass(pts, offset, c, rec, cal, nil))
	}
	rec.RPCs = passRPCs(w, rec)
	perPass := map[string][]float64{
		"wall_s": rec.PassWallS, "cpu_s": rec.PassCPUS, "alloc_mb": rec.PassAllocMB, "setup_s": rec.PassSetupS,
	}
	rec.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metric{median(perPass[m.Name]), m.Unit}
	}
	return rec, nil
}

// passRPCs is the RPCs one pass completes, from its points' Values;
// every pass reproduces the same Values.
func passRPCs(w workload, rec *record) float64 {
	var n float64
	for _, v := range rec.values {
		n += w.RPCs(v)
	}
	return n
}

// printRecord prints a run's metrics by name with their units.
func printRecord(r *record) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("workload %s  seed %d  %s  %d passes x %d points  %d attempted  %d failed\n",
		r.Workload, r.Seed, mode, r.Passes, r.Points, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Printf("  %-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	if len(r.Ladder) > 0 {
		fmt.Printf("  %-34s %14s %14s %14s %14s\n", "ladder probe", "cold ns", "cold allocs", "warm ns", "warm allocs")
		for _, n := range sortedKeys(r.Ladder) {
			c := r.Ladder[n]
			fmt.Printf("  %-34s %14.0f %14.0f %14.1f %14.2f\n", n, c.ColdNs, c.ColdAllocs, c.WarmNs, c.WarmAllocs)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method,
// which extrapolates for very small samples).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
