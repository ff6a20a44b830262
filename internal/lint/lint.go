// Package lint is smtlint: a stdlib-only static-analysis suite that
// enforces this repository's determinism, ownership and hot-path
// invariants at compile time. The dynamic batteries (the serial-vs-
// parallel determinism tests, the steady-state alloc pins, the packet
// pool leak counters) catch regressions when a test happens to exercise
// them; these analyzers reject the offending code anywhere in the tree,
// the way production transport stacks gate merges on domain-specific
// compliance rules rather than reviewer memory.
//
// Seven analyzers ship (see Analyzers):
//
//   - determinism: wall-clock reads, global, freshly-seeded or
//     package-level RNG streams, and map iteration are forbidden in
//     internal/ unless annotated with a reason — the serial==parallel
//     byte-identical artifact guarantee survives only if no
//     nondeterminism source can leak into scheduling or output.
//   - panic: library code under internal/ must return errors, not
//     panic; deliberate invariant guards carry an annotated reason.
//   - allowunused: an //smt:allow that suppresses nothing is itself a
//     finding, so suppressions cannot rot in place.
//
// The other four ride the static call graph (callgraph.go) and its
// per-function summaries (summary.go):
//
//   - poolowner: a wire.Packet taken from a pool must reach Release or
//     a consuming call on every path through the acquiring function;
//     consumption is inferred interprocedurally from call-graph
//     summaries.
//   - hotalloc: no heap allocation — capturing closures handed to
//     Engine.At/After included — reachable from a steady-state
//     root (event dispatch, delivery, codec, record layer, transport
//     rx/tx) without an //smt:coldpath -- <reason> annotation.
//   - keyflow: key material — SessionKeys, handshake secrets, HKDF
//     outputs — must not flow into error strings, artifact JSON, or
//     plaintext wire writes.
//   - engineconfine: code running under a sim.Engine must not write
//     package-level state, the aliasing precondition for running
//     engines in parallel.
//
// A finding is suppressed by annotating the offending line (or the line
// above it) with a reasoned comment:
//
//	//smt:allow <rule>[,<rule>...] -- <reason>
//
// The reason is mandatory: an allow comment without one is itself a
// finding, so every suppression documents why the site is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Rule    string `json:"rule"`
	Pkg     string `json:"pkg"`
	Pos     string `json:"pos"` // file:line:col
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Rule)
}

// An Analyzer is one named rule: a documented invariant plus the check
// that enforces it over a type-checked package.
type Analyzer struct {
	// Name is the rule identifier used by -rules selection and in
	// //smt:allow comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports the package's violations through pass.Report.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	allows   *allowSet
	report   func(Finding)
	// ran names every analyzer executing in this run — the allowunused
	// meta-rule only polices suppressions whose rule actually ran (an
	// allow for a deselected rule cannot prove itself used).
	ran map[string]bool
}

// Report files a finding at pos unless an //smt:allow comment for this
// analyzer covers the position's line.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allows.covers(position, p.Analyzer.Name) {
		return
	}
	p.report(Finding{
		Rule:    p.Analyzer.Name,
		Pkg:     p.Pkg.Path,
		Pos:     fmt.Sprintf("%s:%d:%d", position.Filename, position.Line, position.Column),
		Message: fmt.Sprintf(format, args...),
	})
}

// allowRule is the meta-rule name malformed suppression comments are
// reported under. It is always checked: a suppression that does not
// carry a reason (or names an unknown rule) must not silently take
// effect.
const allowRule = "allow"

// allowEntry is one rule named by one //smt:allow comment. used flips
// when the entry actually suppresses a finding, so the allowunused
// meta-rule can flag suppressions that have rotted.
type allowEntry struct {
	rule string
	pos  token.Pos
	used bool
}

// allowSet indexes every well-formed //smt:allow comment by file and
// line. An allow covers its own line and the line below it, so both
// trailing comments and a comment of its own above the statement work.
type allowSet struct {
	byLine  map[string]map[int][]*allowEntry // file -> line -> entries
	entries []*allowEntry                    // source order, for allowunused
}

func (a *allowSet) covers(pos token.Position, rule string) bool {
	lines := a.byLine[pos.Filename]
	hit := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, e := range lines[l] {
			if e.rule == rule {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

const allowPrefix = "//smt:allow"

// parseAllows scans a package's comments for //smt:allow directives,
// recording well-formed ones and reporting malformed ones (missing
// "-- reason", empty rule list, or a rule name no analyzer owns) as
// findings under the "allow" meta-rule. known lists the valid rule
// names.
func parseAllows(pkg *Package, known map[string]bool, report func(Finding)) *allowSet {
	set := &allowSet{byLine: make(map[string]map[int][]*allowEntry)}
	bad := func(pos token.Pos, msg string) {
		position := pkg.Fset.Position(pos)
		report(Finding{
			Rule:    allowRule,
			Pkg:     pkg.Path,
			Pos:     fmt.Sprintf("%s:%d:%d", position.Filename, position.Line, position.Column),
			Message: msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := c.Text[len(allowPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //smt:allowance — not ours
				}
				rulesPart, reason, found := strings.Cut(rest, "--")
				if !found || strings.TrimSpace(reason) == "" {
					bad(c.Pos(), fmt.Sprintf("suppression %q needs a reason: //smt:allow <rule> -- <why this is safe>", c.Text))
					continue
				}
				var rules []string
				ok := true
				for _, r := range strings.Split(rulesPart, ",") {
					r = strings.TrimSpace(r)
					if r == "" {
						continue
					}
					if !known[r] {
						bad(c.Pos(), fmt.Sprintf("suppression names unknown rule %q (have: %s)", r, strings.Join(sortedKeys(known), ", ")))
						ok = false
						continue
					}
					rules = append(rules, r)
				}
				if !ok {
					continue
				}
				if len(rules) == 0 {
					bad(c.Pos(), fmt.Sprintf("suppression %q names no rules", c.Text))
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				lines := set.byLine[position.Filename]
				if lines == nil {
					lines = make(map[int][]*allowEntry)
					set.byLine[position.Filename] = lines
				}
				for _, r := range rules {
					e := &allowEntry{rule: r, pos: c.Pos()}
					lines[position.Line] = append(lines[position.Line], e)
					set.entries = append(set.entries, e)
				}
			}
		}
	}
	return set
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	//smt:allow determinism -- keys are sorted before use; iteration order never escapes
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Analyzers returns the full registered suite in canonical order.
// AllowUnusedAnalyzer is last by construction: it audits the suppression
// comments the other rules consulted, so it must run after them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		PanicAnalyzer,
		PoolOwnerAnalyzer,
		HotAllocAnalyzer,
		KeyFlowAnalyzer,
		EngineConfineAnalyzer,
		AllowUnusedAnalyzer,
	}
}

// Select resolves a comma-separated rule list ("" or "all" = the full
// suite) against the registered analyzers.
func Select(rules string) ([]*Analyzer, error) {
	all := Analyzers()
	rules = strings.TrimSpace(rules)
	if rules == "" || rules == "all" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	names := make([]string, len(all))
	for i, a := range all {
		byName[a.Name] = a
		names[i] = a.Name
	}
	var out []*Analyzer
	for _, r := range strings.Split(rules, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		a, ok := byName[r]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have: %s)", r, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty rule selection %q", rules)
	}
	return out, nil
}

// Run applies the analyzers to every package of the program and returns
// the findings in deterministic (file, line, column, rule) order.
// Type-check errors are reported as "typecheck" findings: analysis of a
// package that does not compile is unreliable and must not pass.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range prog.Packages {
		findings = append(findings, runPackage(pkg, analyzers)...)
	}
	sortFindings(findings)
	return findings
}

// RunPackage applies the analyzers to a single package (the fixture-test
// entry point) and returns sorted findings.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	findings := runPackage(pkg, analyzers)
	sortFindings(findings)
	return findings
}

func runPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	report := func(f Finding) { findings = append(findings, f) }
	for _, err := range pkg.TypeErrors {
		report(Finding{Rule: "typecheck", Pkg: pkg.Path, Pos: typeErrPos(err), Message: err.Error()})
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() { // all rules are always valid allow targets
		known[a.Name] = true
	}
	allows := parseAllows(pkg, known, report)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	// allowunused runs strictly last: it inspects which suppressions the
	// other analyzers consumed.
	var last *Analyzer
	for _, a := range analyzers {
		if a == AllowUnusedAnalyzer {
			last = a
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, allows: allows, report: report, ran: ran}
		a.Run(pass)
	}
	if last != nil {
		pass := &Pass{Analyzer: last, Pkg: pkg, allows: allows, report: report, ran: ran}
		last.Run(pass)
	}
	return findings
}

func typeErrPos(err error) string {
	if te, ok := err.(types.Error); ok && te.Fset != nil {
		p := te.Fset.Position(te.Pos)
		return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
	}
	return "-"
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos != fs[j].Pos {
			return fs[i].Pos < fs[j].Pos
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Message < fs[j].Message
	})
}

// walkFiles applies fn to every node of every file in the pass's
// package.
func walkFiles(p *Pass, fn func(n ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
