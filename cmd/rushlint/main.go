// Command rushlint is the repo's static-analysis multichecker: it runs
// the internal/lint analyzer suite — detclock, floatexact, durability,
// locksafe, hotpath, deadpkg — over the given packages (default ./...)
// and exits non-zero when any invariant is violated. deadpkg looks for
// importers among the loaded packages only, so a run over less than the
// whole module should leave it out with -checks.
//
// Usage:
//
//	rushlint [-checks detclock,locksafe] [-list] [packages...]
//
// Diagnostics print as file:line:col: [analyzer] message. Suppressions
// use //rushlint:allow <analyzer> — <reason> on or directly above the
// offending line; see docs/ARCHITECTURE.md "Invariants".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rushprobe/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rushlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		var selected []*lint.Analyzer
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "rushlint: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "rushlint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "rushlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rushlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}
