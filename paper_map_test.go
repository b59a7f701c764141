package systolic_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// paperMap is the paper → code map TestPaperMapNamesExist checks.
const paperMap = "docs/PAPER_MAP.md"

// declared returns every name the Go files of dir (tests included)
// declare at package level: functions, types, variables, constants,
// and Type.Member for methods and struct fields.
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									names[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestPaperMapNamesExist: every package symbol, test and path that
// docs/PAPER_MAP.md names exists, and every `go test PKG -run PATTERN`
// command it gives runs at least one test, so the map cannot point at
// code that was renamed or removed.
func TestPaperMapNamesExist(t *testing.T) {
	text, err := os.ReadFile(paperMap)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	inDir := func(dir string) map[string]bool {
		if decls[dir] == nil {
			decls[dir] = declared(t, dir)
		}
		return decls[dir]
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	ticked := regexp.MustCompile("`([^`]+)`")
	rows := 0
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Paper artifact") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 4 {
			t.Errorf("%s: row has %d columns, want 4: %s", paperMap, len(cells), line)
			continue
		}
		rows++
		artifact, _, _ := strings.Cut(cells[0], ":")
		for col, cell := range cells[1:3] {
			names := ticked.FindAllStringSubmatch(cell, -1)
			if len(names) == 0 {
				t.Errorf("%s: %q names nothing in column %d", paperMap, artifact, col+2)
			}
			for _, m := range names {
				name := m[1]
				if exists(name) {
					continue
				}
				// pkg.Name or pkg.Type.Member, pkg a directory under the
				// module root or "systolic" for the root itself.
				slash := strings.LastIndex(name, "/")
				dot := strings.Index(name[slash+1:], ".")
				if dot < 0 {
					t.Errorf("%s: %q: %s is neither a path nor a symbol", paperMap, artifact, name)
					continue
				}
				dir, sym := name[:slash+1+dot], name[slash+2+dot:]
				if dir == "systolic" {
					dir = "."
				}
				if !exists(dir) || !inDir(dir)[sym] {
					t.Errorf("%s: %q: %s does not exist", paperMap, artifact, name)
				}
			}
		}
		cmds := ticked.FindAllStringSubmatch(cells[3], -1)
		if len(cmds) == 0 {
			t.Errorf("%s: %q gives no command", paperMap, artifact)
		}
		for _, m := range cmds {
			args := strings.Fields(m[1])
			switch {
			case len(args) >= 5 && args[0] == "go" && args[1] == "test" && args[3] == "-run":
				dir := strings.TrimPrefix(args[2], "./")
				re, err := regexp.Compile(strings.Trim(args[4], "'"))
				if err != nil || !exists(dir) {
					t.Errorf("%s: %q: bad command %s", paperMap, artifact, m[1])
					continue
				}
				matched := false
				for sym := range inDir(dir) {
					matched = matched || strings.HasPrefix(sym, "Test") && !strings.Contains(sym, ".") && re.MatchString(sym)
				}
				if !matched {
					t.Errorf("%s: %q: %s runs no test", paperMap, artifact, m[1])
				}
			case len(args) >= 3 && args[0] == "go" && args[1] == "run":
				if !exists(args[2]) {
					t.Errorf("%s: %q: %s does not exist", paperMap, artifact, args[2])
				}
			case args[0] == "sysdl":
				for _, a := range args[1:] {
					if strings.Contains(a, "/") && !exists(a) {
						t.Errorf("%s: %q: %s does not exist", paperMap, artifact, a)
					}
				}
			default:
				t.Errorf("%s: %q: unchecked command %s", paperMap, artifact, m[1])
			}
		}
	}
	// The artifacts of the paper the map must cover: the model and its
	// queues, §3, Theorem 1, §4, §6, §7, §8, §8.1, Fig 1, Figs 1–10.
	if rows < 11 {
		t.Errorf("%s: %d rows, want one per paper artifact (11)", paperMap, rows)
	}
}

// TestDocTestNamesExist: every backticked `Test…`, `Benchmark…` or
// `Fuzz…` name in ARCHITECTURE.md and README.md is a function some
// _test.go file of the module declares — a trailing * names a prefix —
// so the docs cannot send a reader to a test that was renamed or
// removed.
func TestDocTestNamesExist(t *testing.T) {
	tests := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)(\\*?)`")
	for _, doc := range []string{"ARCHITECTURE.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			name, prefix := m[1], m[2] == "*"
			found := tests[name]
			for decl := range tests {
				found = found || prefix && strings.HasPrefix(decl, name)
			}
			if !found {
				t.Errorf("%s names `%s%s`, which no _test.go file declares", doc, name, m[2])
			}
		}
	}
}

// architectureMaxLines is the most ARCHITECTURE.md may hold. The
// document is a map of invariants, mechanisms and pinning tests; a
// mechanism is explained in the doc comment of the code that
// implements it, not again here.
const architectureMaxLines = 600

// TestArchitectureMap: ARCHITECTURE.md stays at most
// architectureMaxLines lines and names, by path, every package
// directory under internal/, cmd/ and tools/, so the map can neither
// grow back into a second copy of the code nor drop a layer.
func TestArchitectureMap(t *testing.T) {
	text, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n > architectureMaxLines {
		t.Errorf("ARCHITECTURE.md has %d lines, want at most %d: point to the doc comment that explains a mechanism instead of restating it", n, architectureMaxLines)
	}
	dirs := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "tools"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("found no package directory under internal/, cmd/ or tools/")
	}
	for _, dir := range slices.Sorted(maps.Keys(dirs)) {
		named := regexp.MustCompile(`(^|[^\w/])` + regexp.QuoteMeta(dir) + `($|[^\w])`)
		if !named.Match(text) {
			t.Errorf("ARCHITECTURE.md does not name the package directory %s", dir)
		}
	}
}
