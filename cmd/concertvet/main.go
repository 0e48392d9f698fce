// Concertvet is the multichecker for the determinism-vet suite
// (internal/lint): stdlib-only static analyzers that mechanically check the
// contracts every result in this repro rests on — hand-declared core.Method
// schema facts (methoddecl), frame-slot bounds (framebounds), freedom from
// nondeterminism sources reaching output or simulation state (detrand),
// experiment-cell isolation at exp.Map/Run sites (cellshare), and
// golden-tested binaries funneling all output through their swappable
// checked-flush writer (goldenpath).
//
// Usage:
//
//	go run ./cmd/concertvet [flags] [pattern...]
//
// Patterns name package directories; a trailing /... walks the tree. With
// no patterns the default set covers the whole repo:
// ./internal/... ./cmd/... ./apps/... ./examples/... ./structures .
//
// Flags:
//
//	-analyzers a,b   run only the named analyzers (default: all)
//	-unsound-only    suppress pessimizing diagnostics
//	-list            print each analyzer's name and doc, then exit
//
// A finding can be suppressed at its line with a machine-readable
// `//lint:allow <analyzer> <reason>` comment (trailing, or standalone on
// the line above); the shim reports malformed and stale allows, so every
// suppression stays justified and live.
//
// Exit status distinguishes severity for CI: 2 when any unsound finding is
// reported, 1 when only pessimizing findings are, 0 when clean, and 3 for
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// defaultPatterns is the repo-wide gate set `make lint` runs.
var defaultPatterns = []string{
	"./internal/...", "./cmd/...", "./apps/...", "./examples/...", "./structures", ".",
}

func main() {
	analyzersFlag := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	unsoundOnly := flag.Bool("unsound-only", false, "report only unsound diagnostics (suppress pessimizing)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: concertvet [-analyzers a,b] [-unsound-only] [-list] [pattern...]\n")
		fmt.Fprintf(os.Stderr, "patterns are package directories; dir/... walks the tree\n")
		fmt.Fprintf(os.Stderr, "default patterns: %s\n\nanalyzers:\n", strings.Join(defaultPatterns, " "))
		for _, a := range lint.AllAnalyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.AllAnalyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*analyzersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "concertvet: %v\n", err)
		flag.Usage()
		os.Exit(3)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = defaultPatterns
	}
	findings, err := lint.Run(analyzers, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "concertvet: %v\n", err)
		os.Exit(3)
	}
	unsound, pessimizing := 0, 0
	for _, f := range findings {
		if f.Category != "unsound" {
			if *unsoundOnly {
				continue
			}
			pessimizing++
		} else {
			unsound++
		}
		fmt.Println(f)
	}
	switch {
	case unsound > 0:
		os.Exit(2)
	case pessimizing > 0:
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers flag against the registry.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.AllAnalyzers, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.AllAnalyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing")
	}
	return out, nil
}
