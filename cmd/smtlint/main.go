// Command smtlint runs the repository's static invariant analyzers
// (internal/lint) over the module and reports violations.
//
// Usage:
//
//	smtlint [-dir .] [-rules all] [-json] [package patterns...]
//	smtlint -list
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on a
// loader or usage error. CI runs it with no arguments from the module
// root; the tier-1 test internal/lint/repo_test.go enforces the same
// zero-findings bar under plain `go test ./...`.
package main

import (
	"flag"
	"fmt"
	"os"

	"smt/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("smtlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the available rules and exit")
	rules := fs.String("rules", "all", "comma-separated rules to run (see -list)")
	dir := fs.String("dir", ".", "module directory to analyze")
	asJSON := fs.Bool("json", false, "emit the schema-versioned JSON report (see lint.JSONSchema)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Select(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	patterns := fs.Args()
	prog, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	findings := lint.Run(prog, analyzers)
	if *asJSON {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
