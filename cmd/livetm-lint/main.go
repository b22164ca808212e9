// Command livetm-lint runs livetm's domain-specific static-analysis
// suite: six analyzers that prove the repository's concurrency and
// determinism invariants, and that it carries no dead code, at compile
// time (see internal/lint's package documentation for the rule
// catalog and the allow-directive grammar). It is stdlib-only — the
// package graph comes from `go list`, type checking from go/parser +
// go/types — so the module's zero-dependency property survives its
// own linter.
//
// Usage:
//
//	livetm-lint [-dir DIR] [-list] [packages]
//
// Packages default to ./... under -dir (default "."). The exit code
// is 0 when the tree is clean, 1 when any finding is reported, and 2
// on a driver error (unparseable package, failed go list).
package main

import (
	"flag"
	"fmt"
	"os"

	"livetm/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "module directory to analyze")
	list := flag.Bool("list", false, "list the rule catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: livetm-lint [-dir DIR] [-list] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	findings, err := lint.Analyze(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livetm-lint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "livetm-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
