package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// uncalledExports lists the exported names that may stay without a
// caller outside their own package, each with the reason. An entry
// that gains such a caller, or names nothing, is stale and fails
// TestEveryInternalExportHasACaller.
var uncalledExports = map[string]string{
	"refsim.Run":             "the full-scan reference engine is test-only by design: only the equivalence suites of other packages call it",
	"crossoff.ByMessageID":   "the default PairPicker (a nil Picker), named for callers that pass it; the ROADMAP's picker study decides whether Picker stays",
	"crossoff.ByFewestSkips": "the alternative PairPicker that the same picker study measures",
	"linkmodel.Unit":         "the zero Kind: callers rely on the zero value, and the enumeration still names it",
}

// TestEveryInternalExportHasACaller keeps the internal packages'
// surface to what the rest of the module uses: every exported
// package-level func, var and const declared in a non-test file under
// systolic/internal/ must be used by a non-test file of another
// package (the root package, cmd, examples and tools count). Types and
// methods are out of scope — signatures name types, and methods can
// satisfy interfaces. A name that only its own package uses should be
// unexported; one that nothing uses should go.
func TestEveryInternalExportHasACaller(t *testing.T) {
	res := universe(t)
	used := make(map[types.Object]bool)
	for _, pkg := range res.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != pkg.Types {
				used[obj] = true
			}
		}
	}
	var uncalled []string
	seen := make(map[string]bool)
	for _, pkg := range res.Pkgs {
		if !strings.HasPrefix(pkg.Path, "systolic/internal/") {
			continue
		}
		for _, id := range exportedDecls(pkg.Files) {
			name := pkg.Types.Name() + "." + id.Name
			seen[name] = true
			if used[pkg.Info.Defs[id]] {
				if _, ok := uncalledExports[name]; ok {
					t.Errorf("%s is allowlisted as uncalled but has a caller: drop the entry", name)
				}
				continue
			}
			if _, ok := uncalledExports[name]; !ok {
				uncalled = append(uncalled, name)
			}
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s has no caller outside its package: unexport or delete it", name)
	}
	for name := range uncalledExports {
		if !seen[name] {
			t.Errorf("allowlist entry %s names no exported func, var or const", name)
		}
	}
}

// exportedDecls returns the identifiers of the exported package-level
// funcs, vars and consts declared in files.
func exportedDecls(files []*ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					ids = append(ids, d.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR && d.Tok != token.CONST {
					continue
				}
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}
