package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// roundsMain runs rounds × every workload, one fresh child process per
// run and the workloads interleaved within each round, then prints each
// metric's median and quartiles and writes every run to out.
func roundsMain(rounds int, seed int64, seconds float64, traced bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir := "."
	if out != "" {
		dir = filepath.Dir(out)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var runs []*record
	status := 0
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			rec, err := runChild(exe, dir, w.Name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: round %d %s: %v\n", r, w.Name, err)
				return 1
			}
			if rec.Failed > 0 {
				status = 1
			}
			runs = append(runs, rec)
		}
	}
	printRounds(runs)
	if out != "" {
		if err := writeResults(out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process and reads back its
// record.
func runChild(exe, dir, name string, seed int64, seconds float64, trace string) (*record, error) {
	tmp, err := os.CreateTemp(dir, ".bench-run-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", tmp.Name())
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	res, err := readResults(tmp.Name())
	if err != nil || len(res.Runs) != 1 {
		return nil, fmt.Errorf("child produced no result (%v, %v)", runErr, err)
	}
	return res.Runs[0], nil
}

// printRounds prints, per workload and metric, the median and quartiles
// over the runs.
func printRounds(runs []*record) {
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, r := range runs {
			if r.Workload != w.Name {
				continue
			}
			for n, m := range r.Metrics {
				vals[n] = append(vals[n], m.Value)
				units[n] = m.Unit
			}
		}
		for _, n := range sortedKeys(vals) {
			q1, q3 := quartiles(vals[n])
			fmt.Printf("%-10s %-34s median %12.6g  q1 %12.6g  q3 %12.6g %s (n=%d)\n",
				w.Name, n, median(vals[n]), q1, q3, units[n], len(vals[n]))
		}
	}
}
