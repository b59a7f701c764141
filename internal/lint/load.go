package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analyzed package: parsed files plus full type
// information. Only root packages (the ones matched by the load
// patterns) carry Files and Info; dependencies are type-checked with
// function bodies ignored and only contribute their types.Package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// Result is a completed load: the shared FileSet, the root packages
// in dependency order, and the type-checked universe every import
// resolves against.
type Result struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	byPath map[string]*types.Package
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// importerFunc adapts a lookup function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load resolves patterns with `go list -deps -json` and type-checks
// the whole dependency graph from source — the standard library
// included, since without golang.org/x/tools there is no export-data
// reader. go list emits dependencies before dependents, so a single
// forward pass with a map-backed importer suffices. CGO_ENABLED=0
// selects the pure-Go file sets for stdlib packages that would
// otherwise need cgo.
func load(patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,Name,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	res := &Result{
		Fset:   token.NewFileSet(),
		byPath: map[string]*types.Package{"unsafe": types.Unsafe},
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.ImportPath == "unsafe" || len(lp.GoFiles) == 0 {
			continue
		}
		if err := res.check(lp); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check parses and type-checks one listed package into the result.
func (res *Result) check(lp *listedPkg) error {
	files, err := parseFiles(res.Fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return err
	}
	root := !lp.DepOnly && !lp.Standard
	var info *types.Info
	if root {
		info = newInfo()
	}
	conf := types.Config{
		Importer:         importerFunc(res.importPath),
		FakeImportC:      true,
		IgnoreFuncBodies: !root,
	}
	tpkg, err := conf.Check(lp.ImportPath, res.Fset, files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	res.byPath[lp.ImportPath] = tpkg
	// GOROOT-vendored packages are listed as vendor/<path> but imported
	// by their unvendored path; register both spellings.
	if trimmed := strings.TrimPrefix(lp.ImportPath, "vendor/"); trimmed != lp.ImportPath {
		res.byPath[trimmed] = tpkg
	}
	if root {
		res.Pkgs = append(res.Pkgs, &Package{
			Path:  lp.ImportPath,
			Name:  lp.Name,
			Dir:   lp.Dir,
			Files: files,
			Types: tpkg,
			Info:  info,
			Fset:  res.Fset,
		})
	}
	return nil
}

func (res *Result) importPath(path string) (*types.Package, error) {
	if p, ok := res.byPath[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("lint: import %q not loaded (go list order violated?)", path)
}

// LoadDir parses and type-checks a directory of Go files outside the
// module build (analyzer test fixtures under testdata) against this
// result's universe, under the given import path. Path-scoped
// analyzers see the fixture as whatever package the path claims, so
// fixtures can exercise rules that only fire in, say,
// systolic/internal/sweep.
func (res *Result) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files, err := parseFiles(res.Fset, dir, names)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: importerFunc(res.importPath), FakeImportC: true}
	tpkg, err := conf.Check(importPath, res.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", dir, err)
	}
	return &Package{
		Path:  importPath,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		Fset:  res.Fset,
	}, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
