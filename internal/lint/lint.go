// Package lint implements the determinism-vet suite: static analysis passes
// over the contracts every result in this repro rests on.
//
// Two passes verify the hand-declared analysis inputs of core.Method values
// (MayBlockLocal, Captures, Calls, Forwards, frame bounds — the facts the
// paper's global flow analysis would derive, supplied by hand in every
// Go-authored kernel) against what the method bodies actually do
// (methoddecl, framebounds). Three more guard the repo's bit-determinism
// contract — same seed, same bytes, at any -j width: detrand flags
// nondeterminism sources (map-iteration order reaching output or simulation
// state, global math/rand, wall clock), cellshare checks experiment-cell
// isolation at exp.Map/Run call sites (shared mutable captures,
// shared Config handles), and goldenpath keeps golden-tested binaries'
// output inside their swappable checked-flush writer. AllAnalyzers is the
// registry; cmd/concertvet is the driver.
//
// A finding can be suppressed where it occurs with a machine-readable
// `//lint:allow <analyzer> <reason>` comment (trailing, or standalone on
// the line above). The reason is mandatory; malformed allows are unsound
// findings and stale ones (suppressing nothing) are pessimizing, so the
// suppression inventory polices itself.
//
// The API mirrors the golang.org/x/tools/go/analysis shape (Analyzer, Pass,
// Diagnostic) so the passes read like standard vet checkers, but it is built
// purely on the standard library: the container this repo builds in has no
// module proxy, so x/tools cannot be fetched, and the passes work from
// syntax alone (no go/types — the stdlib importer cannot resolve module
// paths offline either). The analyses are therefore deliberately
// conservative: anything they cannot resolve syntactically (a method
// variable flowing through an unresolvable call, an rt handle escaping into
// a helper) suppresses the affected checks rather than guessing — the
// runtime sanitizer (core Config.CheckDecls) is the dynamic backstop for
// exactly those blind spots.
//
// Two diagnostic classes are reported:
//
//   - unsound: the body does something its declaration says it cannot
//     (suspends without MayBlockLocal/Locks, captures without Captures,
//     invokes or forwards to a method missing from Calls/Forwards). The
//     schemas selected from such declarations are wrong in the dangerous
//     direction: a blocking method runs under the Non-blocking schema with
//     no fallback armed.
//
//   - pessimizing: the declaration claims something the body provably never
//     does (MayBlockLocal with no touch anywhere, Captures with no
//     CaptureCont, a declared call-graph edge never used). Such
//     declarations silently forfeit the NB fast path the performance story
//     depends on.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one package's syntax to an Analyzer and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Dir      string
	Report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos in the given category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // "unsound" or "pessimizing"
	Message  string
}

// Finding is a resolved diagnostic as returned by Run: the position has
// been resolved against the file set and the originating analyzer recorded.
type Finding struct {
	Analyzer string
	Position token.Position
	Category string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Position, f.Analyzer, f.Category, f.Message)
}

// AllAnalyzers is the registry of every analyzer in the determinism-vet
// suite, in the order cmd/concertvet runs them by default. The allowlist
// parser validates //lint:allow analyzer names against this set.
var AllAnalyzers = []*Analyzer{MethodDecl, FrameBounds, DetRand, CellShare, GoldenPath}

// allowKey identifies one (file, line, analyzer) allowlist grant.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSet is the parsed //lint:allow grants of one package, plus the
// malformed comments found while parsing. A grant written as
//
//	//lint:allow <analyzer> <reason>
//
// suppresses that analyzer's findings on the comment's own line (trailing
// placement) and on the line immediately below (standalone placement). The
// reason is mandatory: an allow without one is itself reported, so every
// suppression in the tree carries its justification in a machine-checkable
// position — no side-channel config file to drift out of date.
type allowSet struct {
	grants    map[allowKey]token.Pos
	order     []allowKey // grant insertion order, for deterministic stale reports
	used      map[allowKey]bool
	malformed []Diagnostic
}

const allowPrefix = "lint:allow"

// parseAllows scans the comment lists of the package's files.
func parseAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	as := &allowSet{grants: map[allowKey]token.Pos{}, used: map[allowKey]bool{}}
	known := map[string]bool{}
	for _, a := range AllAnalyzers {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments are not valid allow positions
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				switch {
				case len(fields) == 0 || !known[fields[0]]:
					as.malformed = append(as.malformed, Diagnostic{Pos: c.Pos(), Category: "unsound",
						Message: fmt.Sprintf("malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" with analyzer one of %s", analyzerNames())})
				case len(fields) < 2:
					as.malformed = append(as.malformed, Diagnostic{Pos: c.Pos(), Category: "unsound",
						Message: fmt.Sprintf("//lint:allow %s is missing its reason; every suppression must say why", fields[0])})
				default:
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := allowKey{pos.Filename, line, fields[0]}
						as.grants[k] = c.Pos()
						as.order = append(as.order, k)
					}
				}
			}
		}
	}
	return as
}

// allowed reports (and marks used) a grant covering the diagnostic.
func (as *allowSet) allowed(analyzer string, pos token.Position) bool {
	k := allowKey{pos.Filename, pos.Line, analyzer}
	if _, ok := as.grants[k]; !ok {
		return false
	}
	as.used[k] = true
	// A grant spans two lines (its own and the next); mark the sibling used
	// too so one consumed grant is not also reported as stale.
	as.used[allowKey{pos.Filename, pos.Line - 1, analyzer}] = true
	as.used[allowKey{pos.Filename, pos.Line + 1, analyzer}] = true
	return true
}

// stale returns a diagnostic per grant that suppressed nothing for an
// analyzer that actually ran — a leftover allow is a pessimizing lie about
// the code under it.
func (as *allowSet) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	seen := map[token.Pos]bool{}
	for _, k := range as.order { // insertion order: stale reports must not vary run to run
		cpos := as.grants[k]
		if !ran[k.analyzer] || as.used[k] || seen[cpos] {
			continue
		}
		seen[cpos] = true
		out = append(out, Diagnostic{Pos: cpos, Category: "pessimizing",
			Message: fmt.Sprintf("stale //lint:allow %s: no %s finding here to suppress", k.analyzer, k.analyzer)})
	}
	return out
}

func analyzerNames() string {
	names := make([]string, len(AllAnalyzers))
	for i, a := range AllAnalyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// ExpandPatterns resolves package patterns to directories containing Go
// source files. A trailing "/..." walks the tree; other patterns name one
// directory. testdata directories and dot-directories are skipped, matching
// the go tool's convention.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) error {
		if seen[dir] {
			return nil
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				seen[dir] = true
				dirs = append(dirs, dir)
				return nil
			}
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Clean(rest)
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return add(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := add(filepath.Clean(pat)); err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadDir parses every non-test Go file of one directory.
func loadDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Run applies every analyzer to every package named by patterns and returns
// the findings sorted by position.
func Run(analyzers []*Analyzer, patterns []string) ([]Finding, error) {
	dirs, err := ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var findings []Finding
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, dir := range dirs {
		files, err := loadDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		allows := parseAllows(fset, files)
		for _, d := range allows.malformed {
			findings = append(findings, Finding{
				Analyzer: "allow", Position: fset.Position(d.Pos),
				Category: d.Category, Message: d.Message,
			})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    files,
				Dir:      dir,
				Report: func(d Diagnostic) {
					pos := fset.Position(d.Pos)
					if allows.allowed(a.Name, pos) {
						return
					}
					findings = append(findings, Finding{
						Analyzer: a.Name,
						Position: pos,
						Category: d.Category,
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", dir, a.Name, err)
			}
		}
		for _, d := range allows.stale(ran) {
			findings = append(findings, Finding{
				Analyzer: "allow", Position: fset.Position(d.Pos),
				Category: d.Category, Message: d.Message,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}
