package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledExports lists the exported names that may stay without a
// caller outside their own package, each with the reason. An entry
// that gains such a caller, or names nothing, is stale and fails
// TestEveryInternalExportHasACaller.
var uncalledExports = map[string]string{
	"refsim.Run":                     "the full-scan reference engine is test-only by design: only the equivalence suites of other packages call it",
	"crossoff.ByMessageID":           "the default PairPicker (a nil Picker), named for callers that pass it; the ROADMAP's picker study decides whether Picker stays",
	"crossoff.ByFewestSkips":         "the alternative PairPicker that the same picker study measures",
	"linkmodel.Unit":                 "the zero Kind: callers rely on the zero value, and the enumeration still names it",
	"systolic.DiffCheck":             "the differential oracle's library entry point: docs/API.md documents it, and TestAPIDocCoversPublicSurface holds the document to naming it",
	"systolic.ServeRoutes":           "lists the daemon's routes for library embedders: docs/API.md documents it, and TestAPIDocCoversPublicSurface holds the document to naming it",
	"systolic.StarTopology":          "one of the topology constructors docs/API.md lists, and the only way to a star outside tests: the DSL has no star form",
	"systolic.Read":                  "with Write, the two values of Op.Kind that a caller walking a Program's code compares against",
	"systolic.Write":                 "with Read, the two values of Op.Kind that a caller walking a Program's code compares against",
	"systolic.FaultClassSlowCell":    "a value of FaultImpact.Class; the enumeration names all four classes, and FaultClassDeadCell has a caller",
	"systolic.FaultClassSlowLink":    "a value of FaultImpact.Class; the enumeration names all four classes, and FaultClassDeadCell has a caller",
	"systolic.FaultClassSeveredLink": "a value of FaultImpact.Class; the enumeration names all four classes, and FaultClassDeadCell has a caller",
}

// TestEveryInternalExportHasACaller keeps the internal packages'
// surface to what the rest of the module uses: every exported
// package-level func, var and const declared in a non-test file under
// systolic/internal/ must be used by a non-test file of another
// package (the root package, cmd, examples and tools count). The root
// package is the library API, so for its names a test is a caller too:
// each must be used by another package or by a test file (its own
// black-box tests are package systolic_test). Types and methods are out
// of scope — signatures name types, and methods can satisfy interfaces.
// A name that only its own package uses should be unexported; one that
// nothing uses should go.
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
	testUsed := rootTestUses(t, res)
	var uncalled []string
	seen := make(map[string]bool)
	for _, pkg := range res.Pkgs {
		root := pkg.Path == "systolic"
		if !root && !strings.HasPrefix(pkg.Path, "systolic/internal/") {
			continue
		}
		for _, id := range exportedDecls(pkg.Files) {
			name := pkg.Types.Name() + "." + id.Name
			seen[name] = true
			if used[pkg.Info.Defs[id]] || root && testUsed[id.Name] {
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

// rootTestUses returns the root package names that the module's test
// files select: X for every systolic.X (or alias.X, when the import is
// renamed) in a _test.go file beside any loaded package. Test files are
// parsed, not type-checked; a selector on an import name is
// unambiguous.
func rootTestUses(t *testing.T, res *Result) map[string]bool {
	t.Helper()
	uses := make(map[string]bool)
	fset := token.NewFileSet()
	for _, pkg := range res.Pkgs {
		if pkg.Path != "systolic" && !strings.HasPrefix(pkg.Path, "systolic/") {
			continue
		}
		names, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "systolic" {
					local = "systolic"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						uses[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	return uses
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
