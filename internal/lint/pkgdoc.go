package lint

import (
	"go/ast"
	"strings"
)

// pkgdoc is the documentation floor formerly enforced by
// tools/doclint, folded into the multichecker so CI runs one static
// analysis entry point: every package must carry a package-level doc
// comment ("// Package xyz …", or "// Command xyz …" for mains) on at
// least one of its non-test files. Test-only packages never reach
// here — the loader only sees packages with non-test Go files.
var pkgdoc = &Analyzer{
	Name: "pkgdoc",
	Doc:  "require a package doc comment on every package",
	Run:  runPkgdoc,
}

func runPkgdoc(pass *Pass) {
	if len(pass.Files) == 0 {
		return
	}
	var first *ast.File
	for _, f := range pass.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return
		}
		if first == nil || pass.Fset.Position(f.Package).Filename < pass.Fset.Position(first.Package).Filename {
			first = f
		}
	}
	want := "// Package " + pass.Pkg.Name()
	if pass.Pkg.Name() == "main" {
		want = "// Command <name>"
	}
	pass.Reportf(first.Package, "package %s has no package doc comment (want %s … on one file)", pass.Pkg.Name(), want)
}
