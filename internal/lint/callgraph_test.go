package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphEdges pins the call-graph builder's resolution rules on
// the testdata/callgraph fixture: direct calls edge to their target,
// interface dispatch edges conservatively to every implementing type's
// method (and only those), calls into generic code edge to the generic
// declaration, and calls through func-typed variables get no edge at
// all.
func TestCallGraphEdges(t *testing.T) {
	prog := repoProg(t)
	pkg, err := prog.LoadFixture(filepath.Join("testdata", "callgraph"), "smt/internal/lintfix/callgraph")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	g := prog.CallGraph(pkg)

	// node resolves a fixture function by the suffix of its full name,
	// so methods can be receiver-qualified: "Bell).Ring", "Horn).Ring".
	node := func(suffix string) *Node {
		t.Helper()
		var found *Node
		for _, n := range g.Nodes {
			if n.Fn == nil || n.Pkg != pkg {
				continue
			}
			if strings.HasSuffix(n.Fn.FullName(), suffix) {
				if found != nil {
					t.Fatalf("node suffix %q is ambiguous (%s and %s)", suffix, found.Fn.FullName(), n.Fn.FullName())
				}
				found = n
			}
		}
		if found == nil {
			t.Fatalf("no fixture node with suffix %q", suffix)
		}
		return found
	}
	hasEdge := func(from, to *Node) bool {
		for _, e := range from.Out {
			if e.Callee == to {
				return true
			}
		}
		return false
	}

	must := []struct{ from, to string }{
		{"direct", "helper"},
		{"caller", "viaInterface"},
		// Interface dispatch: both implementations, value and pointer
		// receiver alike.
		{"viaInterface", "Bell).Ring"},
		{"viaInterface", "Horn).Ring"},
		// Instantiated generic method and function: their declarations.
		{"viaGeneric", "Box[T]).Put"},
		{"viaGeneric", "identity"},
	}
	for _, m := range must {
		if !hasEdge(node(m.from), node(m.to)) {
			t.Errorf("missing edge: %s -> %s", m.from, m.to)
		}
	}

	mustNot := []struct{ from, to string }{
		// Silent does not implement Ringer: no dispatch edge, ever.
		{"viaInterface", "Honk"},
		// A direct call must not be double-counted as interface dispatch.
		{"caller", "Bell).Ring"},
	}
	for _, m := range mustNot {
		if hasEdge(node(m.from), node(m.to)) {
			t.Errorf("forbidden edge present: %s -> %s", m.from, m.to)
		}
	}

	// Calls through func variables resolve to nothing.
	for _, from := range []string{"stored", "methodValue"} {
		if out := node(from).Out; len(out) != 0 {
			t.Errorf("%s has %d edge(s) through a func variable, want none (first: -> %s)", from, len(out), out[0].Callee)
		}
	}
}
