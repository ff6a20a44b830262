package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from the root or from bench/.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// verdict compares a metric's runs on the parent (a) and the change (b).
//
// Given at least minPairs index-aligned pairs, the change improved the
// metric when it wins at least nine tenths of them (ties count for
// neither) and its median beats the parent's by more than the parent's
// interquartile range, or when every one of its runs beats every parent
// run. Otherwise, when either side's interquartile range exceeds the
// bound as a share of its median the difference cannot be resolved;
// when it can, the change regressed if its median is worse than the
// parent's by more than the bound.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	better := func(x, y float64) bool { // x beats y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	medA, medB := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)

	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if pairs >= minPairs && (allBetter || (float64(wins) >= 0.9*float64(pairs) &&
		better(medB, medA) && math.Abs(medB-medA) > q3a-q1a)) {
		return improved
	}
	if (q3a-q1a)/math.Abs(medA) > bound || (q3b-q1b)/math.Abs(medB) > bound {
		return unresolved
	}
	worse := (medB - medA) / math.Abs(medA)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}

// compareMain implements -compare A.json... -- B.json...: for every
// workload and end-to-end metric it prints both sides' median and
// quartiles, the change in the median, and the verdict. It exits 1 when
// any pair regressed.
func compareMain(args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	sideA, err := loadRuns(args[:split])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sideB, err := loadRuns(args[split+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-10s %-9s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "verdict")
	for _, w := range workloads {
		wl := w.Name
		for _, m := range s.EndToEnd {
			a, b := sideA[wl][m.Name], sideB[wl][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Bound, m.Better == "lower")
			if v == regressed {
				status = 1
			}
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			medA, medB := median(a), median(b)
			fmt.Printf("%-10s %-9s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.2f%%  %s (bound %g, n=%d/%d)\n",
				wl, m.Name, medA, q1a, q3a, medB, q1b, q3b, 100*(medB-medA)/medA, v, m.Bound, len(a), len(b))
		}
	}
	return status
}

// loadRuns reads untraced runs from result files, grouped by workload
// and metric in file and run order.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		res, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
