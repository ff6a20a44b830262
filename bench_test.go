package smt_test

import (
	"testing"

	"smt/internal/experiments"
)

// BenchmarkExperiment runs every registered experiment's full sweep,
// one sub-benchmark per registry name, so `go test -bench
// 'Experiment/^fig6$'` times exactly the points `smtexp -run fig6`
// emits. Points run serially: ns/op is the single-goroutine simulation
// cost of the sweep, not protocol speed — the virtual-time results are
// the reproduction, and smtexp prints them.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range experiments.Run(e, experiments.RunOptions{Workers: 1}) {
					if r.Err != "" {
						b.Fatalf("%s: %s", r.Key, r.Err)
					}
				}
			}
		})
	}
}
