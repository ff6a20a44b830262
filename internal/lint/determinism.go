package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the repository's core guarantee — serial
// and parallel runs produce byte-identical artifacts — by forbidding
// nondeterminism sources in internal/ packages unless each site carries
// a reasoned //smt:allow determinism annotation:
//
//   - time.Now / time.Since (wall clock; virtual time comes from
//     sim.Engine.Now). The annotated survivors are pure timing
//     measurements that never feed artifact values: the runner's
//     per-point wall-clock, and handshake/table2's real-crypto
//     microbenchmark.
//   - math/rand's global draw functions (process-global stream shared
//     across goroutines — the parallel runner would interleave draws).
//   - math/rand.New / NewSource (a fresh stream is deterministic only
//     if its seed is; the annotation documents where the seed comes
//     from — the engine seed in sim, the experiment point seed in
//     ycsb).
//   - package-level math/rand state (a *rand.Rand, Source or Zipf
//     variable): a shared stream is racy under the parallel runner and
//     its draw order depends on point scheduling.
//   - crypto/rand (never deterministic; allowed only where the bytes
//     provably stay off the artifact path, e.g. dcdns ticket-signing
//     keys).
//   - range over a map (iteration order is randomized per run; anything
//     it feeds — artifact rows, scheduling, even eviction choices —
//     must be order-insensitive, and the annotation says why it is, or
//     the loop must iterate sorted keys instead).
//
// This is the static complement of the determinism battery
// (TestDeterminismCoverage), which can only catch a nondeterminism
// source that a registered experiment happens to exercise.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global/fresh/package-level RNG streams, and map iteration in internal/ unless annotated with a reason",
	Run:  runDeterminism,
}

// internalScope reports whether the package is part of the simulator
// library (the determinism and panic analyzers' jurisdiction). cmd/ and
// examples/ binaries may read the wall clock; internal/ may not.
func internalScope(path string) bool {
	return strings.Contains(path, "/internal/")
}

// mathRandStreamCtors are the math/rand functions that construct a new
// stream: allowed only with an annotation explaining the seed's origin.
var mathRandStreamCtors = map[string]bool{"New": true, "NewSource": true}

// mathRandExempt are math/rand package-level functions that neither
// draw from the global stream nor create one (NewZipf draws from the
// *Rand it is given).
var mathRandExempt = map[string]bool{"NewZipf": true}

func runDeterminism(pass *Pass) {
	if !internalScope(pass.Pkg.Path) {
		return
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && holdsRNG(v.Type()) {
			pass.Report(v.Pos(), "package-level RNG state %q: a shared stream's draw order depends on point scheduling; thread the engine's *rand.Rand through instead", name)
		}
	}
	info := pass.Pkg.Info
	walkFiles(pass, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := info.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if obj.Name() == "Now" || obj.Name() == "Since" {
					pass.Report(n.Pos(), "wall-clock read time.%s: virtual time comes from sim.Engine.Now; annotate pure timing measurements with a reason", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
				if sel := info.Selections[n]; sel != nil {
					return true // method on a *rand.Rand value, not the package
				}
				name := obj.Name()
				switch {
				case mathRandExempt[name]:
				case mathRandStreamCtors[name]:
					pass.Report(n.Pos(), "new RNG stream rand.%s: deterministic only if the seed is; annotate with where the seed comes from", name)
				default:
					pass.Report(n.Pos(), "global RNG draw rand.%s: shared process-wide stream breaks serial==parallel reproducibility; use the engine's seeded RNG", name)
				}
			case "crypto/rand":
				pass.Report(n.Pos(), "crypto/rand.%s is never deterministic; draw from the engine RNG, or annotate why the bytes stay off the artifact path", obj.Name())
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Report(n.Pos(), "map iteration order is randomized; iterate sorted keys, or annotate why the loop is order-insensitive")
			}
		}
		return true
	})
}

// holdsRNG reports whether t is (or points to) math/rand stream state.
func holdsRNG(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "math/rand" {
		return false
	}
	name := named.Obj().Name()
	return name == "Rand" || name == "Source" || name == "Source64" || name == "Zipf"
}
