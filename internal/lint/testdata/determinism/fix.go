// Package detfix is analysis-only fixture data for the determinism
// analyzer: each deliberate violation carries a trailing want-comment
// (the marker word followed by quoted message substrings) that
// repo_test.go matches against the analyzer's findings. The directory
// lives under testdata/, so the go tool never builds it.
package detfix

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

// Sink absorbs values so the fixture type-checks without unused-variable
// errors.
var Sink any

var shared *rand.Rand // want "package-level RNG state"

func wallClock() {
	Sink = time.Now()        // want "wall-clock read time.Now"
	start := time.Now()      // want "wall-clock read time.Now"
	Sink = time.Since(start) // want "wall-clock read time.Since"
}

func globalDraw() {
	Sink = rand.Int()     // want "global RNG draw rand.Int"
	Sink = rand.Float64() // want "global RNG draw rand.Float64"
}

func freshStream() {
	Sink = rand.New(rand.NewSource(1)) // want "new RNG stream rand.New:" "new RNG stream rand.NewSource"
}

func cryptoDraw() {
	buf := make([]byte, 8)
	_, _ = crand.Read(buf) // want "crypto/rand.Read is never deterministic"
}

func mapIteration(m map[int]int) {
	for k := range m { // want "map iteration order is randomized"
		Sink = k
	}
}

// Negative cases: a reasoned annotation suppresses, drawing from a
// threaded *rand.Rand is the approved form, NewZipf only wraps a stream
// it is given, and ranging over a slice is ordered.
func clean(rng *rand.Rand, xs []int) {
	//smt:allow determinism -- fixture: documents the reasoned-annotation form
	Sink = time.Now()
	Sink = rng.Intn(10)
	z := rand.NewZipf(rng, 1.1, 1.0, 10)
	Sink = z.Uint64()
	for i := range xs {
		Sink = i
	}
}
