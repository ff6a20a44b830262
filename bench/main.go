// Command bench is the simulator's host-cost benchmark: it times how
// long, how much CPU and how much memory the simulator takes to
// reproduce four workloads drawn from the experiment registry, checks
// every reproduced (virtual-time) number against a golden digest, and,
// in a traced run, splits host CPU and allocation by repository module
// and times calls into each module's public functions.
//
// One run measures one workload in one process:
//
//	bash bench/run.sh -workload rtt -seed 0 -seconds 10 -trace 0 -out r.json
//
// Without -workload it runs -rounds rounds of all four workloads, each
// run in a fresh child process; -compare A.json... -- B.json... compares
// two sets of such results. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// commit is stamped by run.sh with the checkout's git revision.
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (rtt, rpc-small, loadsweep, churn); empty runs every workload in child processes")
		seed    = fs.Int64("seed", 0, "offset added to every point's registry seed; the goldens apply at 0")
		seconds = fs.Float64("seconds", 15, "run whole passes until this many seconds have elapsed")
		trace   = fs.Int("trace", 0, "1 profiles the run, splits it by layer and runs the ladder")
		out     = fs.String("out", "", "write the full result (per-point timings, spans) to this JSON file")
		rounds  = fs.Int("rounds", 1, "rounds of all workloads when -workload is empty")
		compare = fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args())
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *name == "" {
		return roundsMain(*rounds, *seed, *seconds, *trace == 1, *out)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rec, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRecord(rec)
	if *out != "" {
		if err := writeResults(*out, []*record{rec}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-readable summary.
	line, err := json.Marshal(summary{
		Correct:   rec.Failed == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   rec.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// summary is the last line a single run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
