// Package rngfix is analysis-only fixture data for the workload-tree RNG
// cases determinism took over from the retired rngplumb rule;
// repo_test.go loads it under a synthetic import path inside
// smt/internal/workload, the tree that rule governed (see
// testdata/determinism for the want-comment convention).
package rngfix

import "math/rand"

var shared = rand.New(rand.NewSource(1)) // want "package-level RNG state" "new RNG stream rand.New:" "new RNG stream rand.NewSource"

func globalDraw() int {
	return rand.Intn(10) // want "global RNG draw rand.Intn"
}

func localStream() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "new RNG stream rand.New:" "new RNG stream rand.NewSource"
}

// clean is the approved form: draw from the *rand.Rand plumbed down
// from sim.Engine.Rand.
func clean(rng *rand.Rand) int {
	return rng.Intn(10)
}
