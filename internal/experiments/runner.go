package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the parallel runner: a bounded worker pool that fans an
// experiment's independent points out across goroutines. Every point
// builds its own World (own engine, own RNG stream), so concurrency
// changes wall-clock only — results are identical to a serial run and
// are always reported in canonical point order.

// RunOptions configures a runner invocation.
type RunOptions struct {
	// Workers bounds concurrent points; <= 0 means GOMAXPROCS.
	Workers int
	// OnResult, when non-nil, observes each result as it completes
	// (completion order, not point order). It is called from worker
	// goroutines and must be safe for concurrent use.
	OnResult func(Result)
	// Lineup is the stack lineup the lineup-driven experiments (fig6,
	// fig7, fig9, incast, multiclient, loadsweep, churn) sweep; nil or
	// empty means DefaultLineup(). Every other experiment ignores it.
	Lineup []StackSpec
	// Audit attaches the wire auditor to every world each point builds
	// and settles the point's worlds when it returns: Result.Audit
	// carries the settlement, and a point whose settlement finds a
	// violation, a leaked packet, a world that did not quiesce or one
	// that saw no packets fails with an "audit: ..." error. Artifacts
	// are byte-identical either way.
	Audit bool
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n) on at most `workers`
// concurrent goroutines (<= 0 means GOMAXPROCS). It returns after all
// invocations complete. Panics inside fn propagate to the caller.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg     sync.WaitGroup
		next   = make(chan int)
		mu     sync.Mutex
		panic1 any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panic1 == nil {
								panic1 = r
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panic1 != nil {
		//smt:allow panic -- re-raises a worker goroutine's panic on the caller; swallowing it would mislabel the run as clean
		panic(panic1)
	}
}

// bind decomposes e over o.Lineup (runs on the default lineup keep
// theirs) and audits it when o.Audit is set.
func (o RunOptions) bind(e Experiment) Experiment {
	if len(o.Lineup) > 0 {
		e.lineup = append([]StackSpec(nil), o.Lineup...)
	}
	e.audit = o.Audit
	return e
}

// RunPoints runs the given points of an experiment, decomposed over
// opts.Lineup, and returns their results in the order the points were
// given, regardless of worker count or completion order.
func RunPoints(e Experiment, pts []Point, opts RunOptions) []Result {
	e = opts.bind(e)
	results := make([]Result, len(pts))
	ForEach(len(pts), opts.workers(), func(i int) {
		results[i] = e.Run(pts[i])
		if opts.OnResult != nil {
			opts.OnResult(results[i])
		}
	})
	return results
}

// Run runs every point of an experiment over opts.Lineup.
func Run(e Experiment, opts RunOptions) []Result {
	e = opts.bind(e)
	return RunPoints(e, e.Points(), opts)
}

// ExperimentRun is one experiment's complete, ordered result set plus
// its total wall-clock cost.
type ExperimentRun struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Results     []Result `json:"results"`
	ElapsedMs   float64  `json:"elapsed_ms"`
}

// RunNamed resolves each name in the registry and runs it. The names
// run sequentially; each experiment's points fan out across the pool.
// An unknown name or an unbuildable lineup stack is an error (reported
// before anything runs).
func RunNamed(names []string, opts RunOptions) ([]ExperimentRun, error) {
	for _, s := range opts.Lineup {
		if _, err := BuildFabric(s); err != nil {
			return nil, err
		}
	}
	exps := make([]Experiment, len(names))
	for i, n := range names {
		e, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %v)", n, Names())
		}
		exps[i] = e
	}
	runs := make([]ExperimentRun, len(exps))
	for i, e := range exps {
		//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
		start := time.Now()
		results := Run(e, opts)
		runs[i] = ExperimentRun{
			Name:        e.Name(),
			Description: e.Describe(),
			Results:     results,
			//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
			ElapsedMs: float64(time.Since(start)) / 1e6,
		}
	}
	return runs, nil
}
