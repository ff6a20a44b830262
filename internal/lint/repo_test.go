package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// repoProgOnce loads the whole repository once and shares it across the
// tests in this file (go list + type-check is the expensive part).
var (
	repoProgOnce sync.Once
	repoProgVal  *Program
	repoProgErr  error
)

func repoProg(t *testing.T) *Program {
	t.Helper()
	repoProgOnce.Do(func() {
		repoProgVal, repoProgErr = Load("../..", nil)
	})
	if repoProgErr != nil {
		t.Fatalf("loading repository: %v", repoProgErr)
	}
	return repoProgVal
}

// TestRepoClean is the tier-1 gate: every analyzer over every package
// of the repository, zero findings. A new violation anywhere in the
// tree fails plain `go test ./...`.
func TestRepoClean(t *testing.T) {
	prog := repoProg(t)
	findings := Run(prog, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s); fix the site or annotate it with //smt:allow <rule> -- <reason>", len(findings))
	}
}

// fixtureSpecs maps each testdata package to the synthetic import path
// it is checked under (the determinism/panic analyzers key on
// "/internal/") and the rules run over it.
var fixtureSpecs = []struct {
	dir    string
	asPath string
	rules  string
}{
	{"determinism", "smt/internal/lintfix/determinism", "determinism"},
	{"panicfix", "smt/internal/lintfix/panicfix", "panic"},
	{"poolowner", "smt/internal/lintfix/poolowner", "poolowner"},
	// The retired hotclosure and rngplumb rules' fixtures, checked by the
	// rules that absorbed them: every case they flagged is still flagged.
	{"hotclosure", "smt/internal/lintfix/hotclosure", "hotalloc"},
	{"rngplumb", "smt/internal/workload/lintfix", "determinism"},
	// allowfix runs the determinism analyzer so that each malformed
	// suppression is paired with the finding it failed to suppress.
	{"allowfix", "smt/internal/lintfix/allowfix", "determinism"},
	{"hotalloc", "smt/internal/lintfix/hotalloc", "hotalloc"},
	{"keyflow", "smt/internal/lintfix/keyflow", "keyflow"},
	{"engineconfine", "smt/internal/lintfix/engineconfine", "engineconfine"},
	// allowunused needs a partner rule whose findings mark suppressions
	// used (or not); determinism plays that part.
	{"allowunused", "smt/internal/lintfix/allowunused", "determinism,allowunused"},
}

// TestFixtures checks every analyzer against its fixture package: each
// `// want "substring"` comment must match exactly one finding on its
// line, and no unexpected findings may appear.
func TestFixtures(t *testing.T) {
	prog := repoProg(t)
	for _, spec := range fixtureSpecs {
		t.Run(spec.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", spec.dir)
			pkg, err := prog.LoadFixture(dir, spec.asPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			analyzers, err := Select(spec.rules)
			if err != nil {
				t.Fatalf("selecting rules %q: %v", spec.rules, err)
			}
			findings := RunPackage(pkg, analyzers)
			for _, f := range findings {
				if f.Rule == "typecheck" {
					t.Fatalf("fixture does not type-check: %s", f)
				}
			}
			matchWants(t, dir, findings)
		})
	}
}

// TestSuppressionWithoutReasonIsFinding pins the meta-rule directly:
// the allowfix fixture's three malformed suppressions (missing reason,
// unknown rule, empty rule list) must each surface as an "allow"
// finding, and none of them may suppress the violation below it.
func TestSuppressionWithoutReasonIsFinding(t *testing.T) {
	prog := repoProg(t)
	pkg, err := prog.LoadFixture(filepath.Join("testdata", "allowfix"), "smt/internal/lintfix/allowfix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := RunPackage(pkg, []*Analyzer{DeterminismAnalyzer})
	var allow, determinism int
	for _, f := range findings {
		switch f.Rule {
		case allowRule:
			allow++
		case "determinism":
			determinism++
		}
	}
	if allow != 3 {
		t.Errorf("allow meta-findings = %d, want 3 (missing reason, unknown rule, no rules): %v", allow, findings)
	}
	if determinism != 3 {
		t.Errorf("determinism findings = %d, want 3 (each malformed allow must NOT suppress): %v", determinism, findings)
	}
}

// TestScopeBoundaries re-checks two fixtures under out-of-jurisdiction
// import paths: the same violating source must produce zero findings,
// proving the analyzers key on package paths, not file contents.
func TestScopeBoundaries(t *testing.T) {
	prog := repoProg(t)
	cases := []struct {
		dir    string
		asPath string
		rules  string
	}{
		// determinism/panic only govern internal/ packages.
		{"determinism", "smt/lintfix/notinternal", "determinism"},
		{"panicfix", "smt/lintfix/notinternal2", "panic"},
	}
	for _, c := range cases {
		pkg, err := prog.LoadFixture(filepath.Join("testdata", c.dir), c.asPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", c.dir, err)
		}
		analyzers, err := Select(c.rules)
		if err != nil {
			t.Fatalf("selecting rules: %v", err)
		}
		for _, f := range RunPackage(pkg, analyzers) {
			if f.Rule == c.rules {
				t.Errorf("fixture %s under %s: rule %s should be out of scope, got %s", c.dir, c.asPath, c.rules, f)
			}
		}
	}
}

// TestAnalyzersRegistry pins the suite: seven uniquely named, documented
// rules, resolvable one by one and as "all". allowunused is last by
// construction (it audits what the others consumed).
func TestAnalyzersRegistry(t *testing.T) {
	want := []string{"determinism", "panic", "poolowner", "hotalloc", "keyflow", "engineconfine", "allowunused"}
	all := Analyzers()
	if len(all) != len(want) {
		t.Fatalf("Analyzers() = %d rules, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("rule %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("rule %q has no Run", a.Name)
		}
		sel, err := Select(a.Name)
		if err != nil || len(sel) != 1 || sel[0] != a {
			t.Errorf("Select(%q) = %v, %v; want the rule itself", a.Name, sel, err)
		}
	}
	if sel, err := Select("all"); err != nil || len(sel) != len(want) {
		t.Errorf("Select(all) = %d rules, %v; want %d", len(sel), err, len(want))
	}
	if sel, err := Select(""); err != nil || len(sel) != len(want) {
		t.Errorf("Select(\"\") = %d rules, %v; want %d", len(sel), err, len(want))
	}
	if sel, err := Select("determinism, panic"); err != nil || len(sel) != 2 {
		t.Errorf("Select(determinism, panic) = %v, %v; want 2 rules", sel, err)
	}
	if _, err := Select("nosuchrule"); err == nil {
		t.Errorf("Select(nosuchrule) succeeded; want an error")
	}
}

// wantRe extracts the quoted substrings of a `// want "a" "b"` comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

type wantMark struct {
	file    string
	line    int
	sub     string
	matched bool
}

// parseWants scans a fixture directory's sources for want comments.
func parseWants(t *testing.T, dir string) []*wantMark {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var wants []*wantMark
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, spec, found := strings.Cut(line, "// want ")
			if !found {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(spec, -1) {
				wants = append(wants, &wantMark{file: path, line: i + 1, sub: m[1]})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	return wants
}

// matchWants pairs findings with want comments one-to-one by file, line
// and message substring; unmatched members of either side fail.
func matchWants(t *testing.T, dir string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, f := range findings {
		file, line, ok := splitPos(f.Pos)
		if !ok {
			t.Errorf("unparseable finding position %q", f.Pos)
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == file && w.line == line && strings.Contains(f.Message, w.sub) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding containing %q, got none", w.file, w.line, w.sub)
		}
	}
}

// splitPos parses "file:line:col".
func splitPos(pos string) (file string, line int, ok bool) {
	parts := strings.Split(pos, ":")
	if len(parts) < 3 {
		return "", 0, false
	}
	file = strings.Join(parts[:len(parts)-2], ":")
	line, err := strconv.Atoi(parts[len(parts)-2])
	return file, line, err == nil
}

// TestFindingString pins the human-readable finding format the driver
// prints.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "panic", Pkg: "smt/internal/x", Pos: "a.go:3:4", Message: "boom"}
	if got, want := f.String(), "a.go:3:4: boom [panic]"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
	if fmt.Sprint(f) != f.String() {
		t.Errorf("Finding does not print via String()")
	}
}
