// Package lint is the repository's static-analysis engine: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, Diagnostic) driven by `go list`
// and the standard library's go/parser + go/types. It exists because
// the contracts ARCHITECTURE.md states in prose — deterministic map
// iteration in anything that reaches a report, the Grant purity
// contract, context cancellation in blocking paths, and the
// package-doc floor — are all statically decidable, and checking them
// at review time is cheaper than discovering violations dynamically in
// the equivalence suite. The allocation budget is not among them: the
// TestAllocGate* gates count what a run allocates, exactly, in every
// run-time regime.
//
// TestRepoIsClean runs every analyzer over the module as part of `go
// test ./...` and fails on any finding. One source directive steers
// the suite:
//
//	//sysvet:unordered -- <reason>   assert a map range is order-insensitive (detorder)
//
// It requires a non-empty reason after " -- "; a directive without
// one, or with any other verb, is itself reported. No directive
// suppresses a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

// Analyzer is one named static check. Run inspects a single package
// through its Pass and reports findings; it must not retain the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass)
}

// Pass carries one package through one analyzer, mirroring
// go/analysis.Pass: parsed files, type information, and a Report
// sink. Dirs exposes the package's sysvet directives so an analyzer
// with its own directive semantics (detorder's unordered) can consult
// them.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Dirs     *DirectiveIndex

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the analyzer that produced
// it, and a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", relPosition(d.Pos), d.Message, d.Analyzer)
}

// relPosition renders a position with the filename relative to the
// working directory when possible; go list reports absolute package
// dirs and relative paths read better in CI logs.
func relPosition(pos token.Position) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && len(rel) < len(pos.Filename) {
			pos.Filename = rel
		}
	}
	return pos.String()
}

// allAnalyzers returns the full suite in a fixed order.
func allAnalyzers() []*Analyzer {
	return []*Analyzer{detorder, grantpure, ctxloop, pkgdoc}
}

// runPackage runs the given analyzers over one loaded package and
// folds in malformed directives as findings of their own.
func runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	out := append([]Diagnostic(nil), dirs.Problems()...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dirs:     dirs,
		}
		a.Run(pass)
		out = append(out, pass.diags...)
	}
	return out
}

// runAll runs the analyzers over every root package of a load result
// and returns the findings in a stable order.
func runAll(res *Result, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range res.Pkgs {
		out = append(out, runPackage(pkg, analyzers)...)
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
