// Command smtexp is the experiment harness CLI: it lists the registered
// experiments (every table/figure of the paper's evaluation), runs any
// subset by name with a parallel worker pool, and emits machine-readable
// JSON artifacts.
//
// Usage:
//
//	smtexp -list                     # experiments + registered stacks
//	smtexp -run fig6                 # one experiment, one human-readable row per point
//	smtexp -run fig6,fig7 -json o.json -workers 8
//	smtexp -run loadsweep -json s.json  # open-loop slowdown-vs-load sweep
//	smtexp -run all -json all.json   # the full evaluation
//	smtexp -stacks TCP,TCPLS,SMT-hw -run loadsweep
//	smtexp -run all -audit           # every world wire-audited
//
// -audit attaches the wire-compliance auditor (internal/audit) to every
// world the run builds. The auditor is a pure observer — artifacts are
// byte-identical with it on — and each point's worlds are drained,
// settled and released as soon as the point returns:
// plaintext/nonce/keystream/framing invariants, byte conservation, and
// packet-pool leak-freedom. A point whose settlement fails is a failed
// point. Every recorded violation prints, one summary line covers the
// run, and any failure exits nonzero.
//
// -stacks selects the lineup the lineup-driven experiments (fig6, fig7,
// fig9, incast, multiclient, loadsweep, churn) sweep in this run: any
// comma-separated subset of the registered stacks (see -list), each
// named once, defaulting to the six-system lineup of the §5 figures.
// Each stack is a transport × record-layer composition from the
// StackSpec registry, so TCPLS and user-space TLS run on the
// switched-fabric experiments exactly like the default six.
//
// Points of one experiment fan out across -workers goroutines (default
// GOMAXPROCS); each point is an independent (configuration, seed) world,
// so results are identical to a serial run and always printed in
// canonical point order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"smt/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list registered experiments and stacks, then exit")
		run     = flag.String("run", "", "comma-separated experiment names to run, or 'all'")
		stacks  = flag.String("stacks", "", "comma-separated stack lineup for the lineup-driven experiments (default: the six-system lineup)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent points")
		jsonOut = flag.String("json", "", "write a JSON artifact to this path")
		quiet   = flag.Bool("quiet", false, "suppress per-point rows; print summaries only")
		audit   = flag.Bool("audit", false, "wire-audit every world, settling each point's worlds when it returns (nonzero exit on any violation)")
	)
	flag.Parse()

	var lineup []experiments.StackSpec
	if *stacks != "" {
		var err error
		if lineup, err = experiments.ParseStacks(*stacks); err != nil {
			fmt.Fprintln(os.Stderr, "smtexp:", err)
			os.Exit(1)
		}
	}

	switch {
	case *list:
		listExperiments()
	case *run != "":
		if err := runExperiments(*run, lineup, *workers, *jsonOut, *quiet, *audit); err != nil {
			fmt.Fprintln(os.Stderr, "smtexp:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func listExperiments() {
	fmt.Printf("%-12s %6s  %s\n", "NAME", "POINTS", "DESCRIPTION")
	for _, e := range experiments.All() {
		fmt.Printf("%-12s %6d  %s\n", e.Name(), len(e.Points()), e.Describe())
	}
	fmt.Printf("\nstacks (transport × record layer; compose a lineup with -stacks):\n")
	fmt.Printf("%-10s %-9s %-9s %s\n", "STACK", "TRANSPORT", "RECORD", "LINEUP")
	inLineup := map[string]bool{}
	for _, s := range experiments.DefaultLineup() {
		inLineup[s.Name] = true
	}
	for _, s := range experiments.Stacks() {
		mark := ""
		if inLineup[s.Name] {
			mark = "default"
		}
		fmt.Printf("%-10s %-9s %-9s %s\n", s.Name, s.Transport, s.Record, mark)
	}
}

func runExperiments(arg string, lineup []experiments.StackSpec, workers int, jsonOut string, quiet, audit bool) error {
	names := splitNames(arg)
	if len(names) == 0 {
		return fmt.Errorf("no experiment names in %q (try -list)", arg)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var onResult func(experiments.Result)
	if !quiet {
		onResult = printResult
	}
	start := time.Now()
	runs, err := experiments.RunNamed(names, experiments.RunOptions{Workers: workers, OnResult: onResult, Lineup: lineup, Audit: audit})
	if err != nil {
		return err
	}
	if audit {
		reportAudit(runs)
	}

	var points, failed int
	for _, r := range runs {
		for _, res := range r.Results {
			points++
			if res.Err != "" {
				failed++
			}
		}
		fmt.Fprintf(os.Stderr, "%-10s %4d points in %8.1f ms\n", r.Name, len(r.Results), r.ElapsedMs)
	}
	fmt.Fprintf(os.Stderr, "total: %d experiments, %d points, %d failed, %.1fs wall (%d workers)\n",
		len(runs), points, failed, time.Since(start).Seconds(), workers)

	if jsonOut != "" {
		a := &experiments.Artifact{
			Version:     experiments.ArtifactVersion,
			Tool:        "smtexp",
			GoVersion:   runtime.Version(),
			CreatedAt:   time.Now().UTC().Format(time.RFC3339),
			Workers:     workers,
			Experiments: runs,
		}
		if err := experiments.WriteArtifact(jsonOut, a); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d point(s) failed", failed)
	}
	return nil
}

// reportAudit prints every violation the run's settlements recorded
// (capped per world by the auditor's recording bound) and one summary
// line for the whole run. A point whose settlement failed already
// carries an "audit: ..." error, so it counts as a failed point.
func reportAudit(runs []experiments.ExperimentRun) {
	var sum experiments.Settlement
	for _, r := range runs {
		for _, res := range r.Results {
			s := res.Audit
			if s == nil {
				continue
			}
			for _, v := range s.Recorded {
				fmt.Fprintln(os.Stderr, "audit:", v.String())
			}
			sum.Worlds += s.Worlds
			sum.Packets += s.Packets
			sum.Violations += s.Violations
			sum.Leaked += s.Leaked
			sum.Stuck += s.Stuck
			sum.Silent += s.Silent
		}
	}
	fmt.Fprintf(os.Stderr, "audit: %d worlds, %d packets observed, %d violations, %d leaked packets, %d worlds failed to quiesce, %d worlds saw no packets\n",
		sum.Worlds, sum.Packets, sum.Violations, sum.Leaked, sum.Stuck, sum.Silent)
}

// splitNames expands "all" and trims a comma-separated -run argument.
func splitNames(arg string) []string {
	if arg == "all" {
		return experiments.Names()
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// printResult renders one point as a human-readable row. Called from
// worker goroutines; a single Printf keeps each row atomic enough for
// line-oriented output.
func printResult(r experiments.Result) {
	if r.Err != "" {
		fmt.Printf("%-8s %-40s ERROR: %s\n", r.Experiment, r.Key, r.Err)
		return
	}
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-40s", r.Experiment, r.Key)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, r.Values[k])
	}
	fmt.Fprintf(&b, " (%.1fms)\n", r.ElapsedMs)
	fmt.Print(b.String())
}
