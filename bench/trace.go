package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// layers are the repository modules host cost is split into, with
// small helper packages folded into the module that uses them.
var layers = []string{
	"sim", "netsim", "nicsim", "cpusim", "homa", "tcpsim", "core", "tlsrec",
	"ktls", "handshake", "experiments", "runtime.gc", "other",
}

// moduleLayer maps each smt/internal package to its layer; packages not
// listed here (the audit tap, the application models) fall in "other".
var moduleLayer = map[string]string{
	"sim": "sim", "netsim": "netsim", "wire": "netsim", "nicsim": "nicsim",
	"cpusim": "cpusim", "homa": "homa", "tcpsim": "tcpsim", "core": "core",
	"tlsrec": "tlsrec", "ktls": "ktls", "tcpls": "ktls",
	"handshake": "handshake", "hkdfx": "handshake", "dcdns": "handshake",
	"experiments": "experiments", "rpc": "experiments", "workload": "experiments",
	"stats": "experiments", "cost": "experiments",
}

// allocLayers are the layers whose allocation volume a traced run
// reports: the ones that allocate per message or per record.
var allocLayers = []string{"homa", "tcpsim", "core", "tlsrec", "ktls", "handshake", "experiments"}

// perLayerUnits names every metric a traced run reports, with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{"runtime.gc_cycles": "count", "trace.overhead_pct": "%"}
	for _, l := range layers {
		u[l+".cpu_pct"] = "%"
	}
	for _, l := range allocLayers {
		u[l+".alloc_mb"] = "MB"
	}
	for _, c := range []string{"experiments.rpcs", "netsim.switch_drops", "handshake.dials"} {
		u[c] = "count"
	}
	for _, p := range probes() {
		u[p.name+"_"+p.unit] = p.unit
		if p.allocs {
			u[p.name+"_allocs"] = "count"
		}
		if p.bytes {
			u[p.name+"_bytes"] = "B"
		}
	}
	return u
}

// sample is one stack of a profile with its value (ns or bytes).
type sample struct {
	value  float64
	frames []string // leaf first
}

// parseTraces reads `go tool pprof -traces -unit=<ns|B>` output.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	inBody := false
	cur := -1 // index of the sample whose frames are being read
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBody, cur = true, -1
		case !inBody || line == "":
			// header (File:, Type:, Duration: ...)
		case cur < 0:
			// "<value><unit>   <leaf>" opens a sample; label lines
			// ("bytes:  4kB") before it are skipped.
			if v, fn, ok := valueLine(line); ok {
				out = append(out, sample{value: v, frames: []string{fn}})
				cur = len(out) - 1
			}
		default:
			out[cur].frames = append(out[cur].frames, strings.TrimSuffix(line, " (inline)"))
		}
	}
	return out, sc.Err()
}

// valueLine splits "1234ns   pkg.func" into its value and leaf frame.
func valueLine(s string) (float64, string, bool) {
	field, rest, ok := strings.Cut(s, " ")
	if !ok {
		return 0, "", false
	}
	num := strings.TrimSuffix(strings.TrimSuffix(field, "ns"), "B")
	if num == field {
		return 0, "", false
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", false
	}
	return v, strings.TrimSuffix(strings.TrimSpace(rest), " (inline)"), true
}

// layerOf charges a stack to the nearest smt/internal frame walking up
// from the leaf, so library code (AES-GCM, P-256, mallocgc, memmove) is
// charged to the module that called it. Stacks with no repository
// frame are GC background work or "other".
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "smt/internal/")
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		if l, ok := moduleLayer[mod]; ok {
			return l
		}
		return "other"
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	return "other"
}

// attribute sums sample values by layer.
func attribute(samples []sample) map[string]float64 {
	by := map[string]float64{}
	for _, s := range samples {
		by[layerOf(s.frames)] += s.value
	}
	return by
}

// shares converts layer totals to percentages of their sum.
func shares(by map[string]float64) map[string]float64 {
	var total float64
	for _, v := range by {
		total += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * by[l] / total
		}
	}
	return out
}

// pprofTraces runs `go tool pprof -traces` with args and parses it.
func pprofTraces(args ...string) ([]sample, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, append([]string{"tool", "pprof", "-traces"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(bytes.NewReader(outb))
}

// span is one timed interval of a traced run; Parent is the ID of the
// span that contains it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.epoch).Nanoseconds(), EndNs: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(parent int, name string) int {
	now := time.Now()
	return l.add(parent, name, now, now)
}

func (l *spanLog) close(id int) {
	l.spans[id-1].EndNs = time.Since(l.epoch).Nanoseconds()
}

// writeAllocs snapshots the cumulative allocation profile after a
// collection, so the snapshot includes everything allocated so far.
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced alternates untraced and CPU-profiled passes until the time
// budget is spent (at least one of each), attributes the profiles by
// layer, and runs the ladder.
func runTraced(w workload, pts []point, offset int64, seconds float64, c *checker, rec *record, cal *calibrator) error {
	dir, err := os.MkdirTemp("", "bench-prof-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log := &spanLog{epoch: time.Now()}
	root := log.open(0, "workload:"+w.Name)

	allocBase := filepath.Join(dir, "allocs-base.pprof")
	if err := writeAllocs(allocBase); err != nil {
		return err
	}
	start := time.Now()
	var cpuProfiles []string
	var gcs []float64
	// Passes come in untraced/profiled pairs until the budget is spent.
	for i := 0; i < 2 || i%2 == 1 || time.Since(start).Seconds() < seconds; i++ {
		profiled := i%2 == 1
		name := fmt.Sprintf("pass:%d", i)
		if profiled {
			name += ":profiled"
		}
		passSpan := log.open(root, name)
		var f *os.File
		if profiled {
			path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i))
			if f, err = os.Create(path); err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			cpuProfiles = append(cpuProfiles, path)
		}
		ps := runPass(pts, offset, c, rec, cal, func(p point, t0, t1 time.Time) {
			log.add(passSpan, "point:"+p.Key, t0, t1)
		})
		if profiled {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
		}
		log.close(passSpan)
		rec.addPass(ps)
		gcs = append(gcs, ps.gcs)
	}
	allocEnd := filepath.Join(dir, "allocs-end.pprof")
	if err := writeAllocs(allocEnd); err != nil {
		return err
	}
	log.close(root)

	cpuSamples, err := pprofTraces(append([]string{"-unit=ns"}, cpuProfiles...)...)
	if err != nil {
		return err
	}
	allocSamples, err := pprofTraces("-unit=B", "-sample_index=alloc_space", "-base", allocBase, allocEnd)
	if err != nil {
		return err
	}

	m := map[string]metric{}
	for l, pct := range shares(attribute(cpuSamples)) {
		m[l+".cpu_pct"] = metric{pct, "%"}
	}
	allocBy := attribute(allocSamples)
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = metric{allocBy[l] / float64(rec.Passes) / 1e6, "MB"}
	}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	m["trace.overhead_pct"] = metric{profilingOverhead(pts, rec), "%"}
	rec.RPCs = passRPCs(w, rec)
	m["experiments.rpcs"] = metric{rec.RPCs, "count"}
	m["netsim.switch_drops"] = metric{sumValues(rec, "switch_drops"), "count"}
	m["handshake.dials"] = metric{sumValues(rec, "dials"), "count"}

	ladderSpan := log.open(0, "ladder")
	lad, err := runLadder(func(name string, t0, t1 time.Time) {
		log.add(ladderSpan, "probe:"+name, t0, t1)
	})
	if err != nil {
		return err
	}
	log.close(ladderSpan)
	for name, v := range lad.metrics {
		m[name] = v
	}
	for name := range perLayerUnits() {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("traced run did not report %s", name)
		}
	}
	rec.Ladder = lad.cold
	rec.Metrics = m
	rec.Spans = log.spans
	return nil
}

// profilingOverhead is the median over points of the point's time in
// profiled passes over its time in untraced passes, as a percentage
// above 1. Passes alternate untraced (even) and profiled (odd). The
// times are raw: the profiler slows the calibration slices too, so
// scaling would hide most of its cost.
func profilingOverhead(pts []point, rec *record) float64 {
	var ratios []float64
	for _, p := range pts {
		var on, off float64
		for i, ms := range rec.PointMs[p.Key] {
			if i%2 == 1 {
				on += ms
			} else {
				off += ms
			}
		}
		if off > 0 {
			ratios = append(ratios, on/off)
		}
	}
	return 100 * (median(ratios) - 1)
}

// sumValues sums one Values key over the points of a pass.
func sumValues(rec *record, key string) float64 {
	var sum float64
	for _, v := range rec.values {
		sum += v[key]
	}
	return sum
}
