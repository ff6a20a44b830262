package experiments

import (
	"fmt"
	"sort"
	"time"
)

// This file defines the experiment registry: every figure/table of the
// paper's evaluation is defined exactly once, in register.go, as a named
// Experiment whose sweep is decomposed into independent Points. A Point
// is one (configuration, seed) cell — it builds its own World, so any
// subset of points can run concurrently (see runner.go) and in any
// order, while results stay deterministic and deterministically ordered.

// Experiment is one named table/figure of the evaluation.
//
// Points must be stable: the same experiment always decomposes into the
// same point list, in the same order, with the same keys and seeds.
// Run must be safe to call from multiple goroutines on distinct points.
type Experiment interface {
	// Name is the registry key, e.g. "fig6".
	Name() string
	// Describe is a one-line human description.
	Describe() string
	// Points enumerates the independent cells of the sweep.
	Points() []Point
	// Run executes one point and returns its result. It must not
	// depend on any other point having run.
	Run(Point) Result
}

// Point identifies one independent cell of an experiment's sweep.
type Point struct {
	// Index is the point's position in the experiment's canonical
	// order; results are reported sorted by Index.
	Index int `json:"index"`
	// Key is a stable human-readable identifier, e.g.
	// "sys=SMT-sw/size=1024".
	Key string `json:"key"`
	// Seed is the deterministic world seed the point runs under.
	Seed int64 `json:"seed"`
}

// Values holds the numeric outputs of one point, keyed by metric name.
type Values = map[string]float64

// Labels holds the qualitative outputs/coordinates of one point.
type Labels = map[string]string

// Result is the machine-readable outcome of one point.
type Result struct {
	Experiment string `json:"experiment"`
	Index      int    `json:"index"`
	Key        string `json:"key"`
	Seed       int64  `json:"seed,omitempty"`
	Labels     Labels `json:"labels,omitempty"`
	Values     Values `json:"values,omitempty"`
	// ElapsedMs is the wall-clock cost of running the point (the
	// simulation cost, not the virtual-time result).
	ElapsedMs float64 `json:"elapsed_ms"`
	// Err is set when the point returned an error (a stack that could
	// not be built or wired) or panicked instead of completing.
	Err string `json:"error,omitempty"`
}

// pointSpec is the in-package building block of registered experiments:
// one cell's identity plus the closure that measures it. Run reports
// setup failures (unbuildable stacks, key material) as error returns;
// panics are still recovered as a last resort.
type pointSpec struct {
	Key    string
	Seed   int64
	Labels Labels
	Run    func() (Values, error)
}

// specExperiment adapts a deterministic []pointSpec builder to the
// Experiment interface. The builder is re-invoked per call; it must be
// cheap and must return the same decomposition for the same lineup.
// Builders of the lineup-driven sweeps decompose over their argument;
// the rest ignore it.
type specExperiment struct {
	name   string
	desc   string
	build  func(lineup []StackSpec) []pointSpec
	lineup []StackSpec // nil = DefaultLineup()
}

func (e *specExperiment) Name() string     { return e.name }
func (e *specExperiment) Describe() string { return e.desc }

// specs decomposes the sweep over the experiment's lineup.
func (e *specExperiment) specs() []pointSpec {
	if e.lineup == nil {
		return e.build(DefaultLineup())
	}
	return e.build(e.lineup)
}

func (e *specExperiment) Points() []Point {
	specs := e.specs()
	pts := make([]Point, len(specs))
	for i, s := range specs {
		pts[i] = Point{Index: i, Key: s.Key, Seed: s.Seed}
	}
	return pts
}

func (e *specExperiment) Run(p Point) Result {
	specs := e.specs()
	res := Result{Experiment: e.name, Index: p.Index, Key: p.Key, Seed: p.Seed}
	if p.Index < 0 || p.Index >= len(specs) {
		res.Err = fmt.Sprintf("point index %d out of range [0,%d)", p.Index, len(specs))
		return res
	}
	s := specs[p.Index]
	// A stale point (recorded before a grid edit shifted the indexes)
	// must fail loudly, not measure whichever cell lives there now.
	if p.Key != "" && p.Key != s.Key {
		res.Err = fmt.Sprintf("point key %q no longer at index %d (now %q)", p.Key, p.Index, s.Key)
		return res
	}
	res.Key, res.Seed, res.Labels = s.Key, s.Seed, s.Labels
	//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Sprint(r)
			}
		}()
		var err error
		res.Values, err = s.Run()
		if err != nil {
			res.Err = err.Error()
		}
	}()
	//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
	res.ElapsedMs = float64(time.Since(start)) / 1e6
	return res
}

// registry maps names to experiments. register writes it only during
// package init, so every later read is unsynchronized.
var registry = map[string]Experiment{}

// register adds an experiment built on the default lineup. It panics on
// a duplicate or empty name — registration is an init-time programming
// contract.
func register(name, desc string, build func(lineup []StackSpec) []pointSpec) {
	if name == "" {
		//smt:allow panic -- init-time registration contract; a nameless experiment can never be looked up
		panic("experiments: register with empty name")
	}
	if _, dup := registry[name]; dup {
		//smt:allow panic -- init-time registration contract; a duplicate would silently shadow an experiment
		panic("experiments: duplicate register of " + name)
	}
	registry[name] = &specExperiment{name: name, desc: desc, build: build}
}

// Lookup returns the experiment registered under name, decomposed over
// DefaultLineup (RunOptions.Lineup selects another at run time).
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names returns all registered experiment names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	//smt:allow determinism -- names are sorted before use; iteration order never escapes
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all registered experiments, sorted by name.
func All() []Experiment {
	names := Names()
	exps := make([]Experiment, len(names))
	for i, n := range names {
		exps[i] = registry[n]
	}
	return exps
}
