package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// Package is one type-checked package of the program under analysis:
// parsed syntax plus full go/types information, the unit every analyzer
// consumes.
type Package struct {
	Path  string // import path ("smt/internal/sim")
	Name  string
	Dir   string
	Files []*ast.File
	Fset  *token.FileSet
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checking problems. Analysis results on a
	// package that did not check cleanly are unreliable; Run surfaces
	// these as findings so a broken tree cannot pass silently.
	TypeErrors []error

	// prog links back to the owning program, for analyses that need
	// cross-package facts (the shared call graph and its summaries).
	prog *Program
}

// Program is a loaded module: every first-party package in dependency
// order, plus the importer state needed to type-check extra fixture
// packages against the same dependency closure.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
	export map[string]string // dependency import path -> export data file
	gcImp  types.ImporterFrom

	// Call graph and summaries, built once and shared by the
	// interprocedural analyzers (see callgraph.go). cgFix memoizes
	// one-off graphs spanning the program plus a fixture package.
	cgOnce  sync.Once
	cgVal   *Graph
	cgFixMu sync.Mutex
	cgFix   map[*Package]*Graph
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// Load builds the program rooted at dir (a module root or any directory
// inside one). Patterns follow the go tool's package-pattern syntax and
// default to "./...". extraDeps names packages outside the patterns'
// dependency closure (stdlib packages fixtures import) whose export data
// should also be available.
//
// The loader shells out to `go list -deps -export -json`, which yields
// build-tag-filtered file lists for every package plus compiled export
// data for dependencies, then parses and type-checks the first-party
// packages from source in dependency order. Only stdlib and go/* tooling
// packages are used — no module dependencies.
func Load(dir string, patterns []string, extraDeps ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	args = append(args, extraDeps...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		export: make(map[string]string),
	}
	prog.gcImp = importer.ForCompiler(prog.Fset, "gc", prog.lookupExport).(types.ImporterFrom)

	// go list -deps emits packages in dependency order: every package's
	// imports precede it, so one forward pass type-checks everything.
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		firstParty := !lp.Standard && lp.Module != nil
		if !firstParty {
			if lp.Export != "" {
				prog.export[lp.ImportPath] = lp.Export
			}
			continue
		}
		pkg, err := prog.check(lp.ImportPath, lp.Dir, listFiles(lp))
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[lp.ImportPath] = pkg
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("lint: no first-party packages matched %v in %s", patterns, dir)
	}
	return prog, nil
}

func listFiles(lp listedPackage) []string {
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	return files
}

// LoadFixture type-checks a directory of test fixture files as one
// package with the given synthetic import path, resolving imports
// against prog's already-loaded packages and export data. Fixture
// packages live under testdata/ (invisible to the go tool), so
// deliberately violating code never breaks the real build.
func (p *Program) LoadFixture(dir, asPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture dir: %v", err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in fixture dir %s", dir)
	}
	return p.check(asPath, dir, files)
}

// check parses and type-checks one package's files.
func (p *Program) check(path, dir string, files []string) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir, Fset: p.Fset, prog: p}
	for _, f := range files {
		af, err := parser.ParseFile(p.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", f, err)
		}
		pkg.Files = append(pkg.Files, af)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*progImporter)(p),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, p.Fset, pkg.Files, pkg.Info) // errors collected above
	pkg.Types = tpkg
	if len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	}
	return pkg, nil
}

// lookupExport feeds compiled export data to the gc importer.
func (p *Program) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := p.export[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// progImporter resolves imports during type checking: first-party
// packages come from the in-progress cache (dependency order guarantees
// they are checked first), everything else from gc export data.
type progImporter Program

func (pi *progImporter) Import(path string) (*types.Package, error) {
	return pi.ImportFrom(path, "", 0)
}

func (pi *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := pi.byPath[path]; ok {
		return pkg.Types, nil
	}
	return pi.gcImp.ImportFrom(path, dir, 0)
}
