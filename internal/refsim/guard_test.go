package refsim

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTestsImportRefsim keeps the oracle out of everything that
// ships: no non-test Go file in the module — library, cmd/..., tools/...,
// examples/... — may import this package, so no binary links it.
func TestOnlyTestsImportRefsim(t *testing.T) {
	const self = "systolic/internal/refsim"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	sawCLI := false
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		sawCLI = sawCLI || filepath.ToSlash(path) == "../../cmd/sysdl/main.go"
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s; only _test.go files may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawCLI {
		t.Fatal("the walk never reached cmd/sysdl/main.go; it no longer covers the module")
	}
}
