package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module universe (every systolic package plus its stdlib deps,
// fully type-checked) is shared across tests: fixtures type-check
// against it via LoadDir, and TestRepoIsClean runs the suite over it.
var (
	loadOnce sync.Once
	loadRes  *Result
	loadErr  error
)

func universe(t *testing.T) *Result {
	t.Helper()
	loadOnce.Do(func() {
		loadRes, loadErr = load("systolic/...")
	})
	if loadErr != nil {
		t.Fatalf("loading module universe: %v", loadErr)
	}
	return loadRes
}

// loadFixture type-checks testdata/src/<dir> against the universe
// under the given import path, so path-scoped analyzers treat the
// fixture as the package the path names.
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := universe(t).LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// fixtureWants collects the `// want` annotations of a fixture
// package, keyed by the file and line they trail.
func fixtureWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over a fixture and matches the
// findings against its want annotations, in both directions: every
// finding must be wanted on its line, and every want must be matched
// by a finding.
func checkFixture(t *testing.T, pkg *Package, analyzers []*Analyzer) {
	t.Helper()
	diags := runPackage(pkg, analyzers)
	wants := fixtureWants(t, pkg)
	used := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, re := range wants[key] {
			if !used[re] && re.MatchString(d.Message) {
				used[re] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			if !used[re] {
				t.Errorf("%s:%d: no finding matching %q", key.file, key.line, re)
			}
		}
	}
}

func TestDetorderFixture(t *testing.T) {
	// server is determinism-critical, so detorder fires there.
	pkg := loadFixture(t, "detorder", "systolic/internal/server")
	checkFixture(t, pkg, []*Analyzer{detorder})
}

func TestDetorderScopedToCriticalPackages(t *testing.T) {
	// The same fixture under a non-critical path must be silent:
	// detorder's contract covers only packages whose output reaches
	// reports or wire responses.
	pkg := loadFixture(t, "detorder", "systolic/internal/assign")
	if diags := runPackage(pkg, []*Analyzer{detorder}); len(diags) != 0 {
		t.Errorf("detorder fired outside critical packages: %v", diags)
	}
}

func TestGrantpureFixture(t *testing.T) {
	// grantpure is signature-scoped, not path-scoped: any package
	// defining a Policy-shaped Grant is checked.
	pkg := loadFixture(t, "grantpure", "systolic/internal/lintfixtures/grantfix")
	checkFixture(t, pkg, []*Analyzer{grantpure})
}

func TestCtxloopFixture(t *testing.T) {
	// sweep is in both ctxloop scopes: blocking loops and ExecOptions
	// literals.
	pkg := loadFixture(t, "ctxloop", "systolic/internal/sweep")
	checkFixture(t, pkg, []*Analyzer{ctxloop})
}

func TestCtxloopScopedToBlockingPackages(t *testing.T) {
	pkg := loadFixture(t, "ctxloop", "systolic/internal/label")
	if diags := runPackage(pkg, []*Analyzer{ctxloop}); len(diags) != 0 {
		t.Errorf("ctxloop fired outside its packages: %v", diags)
	}
}

func TestPkgdocFixtures(t *testing.T) {
	nodoc := loadFixture(t, filepath.Join("pkgdoc", "nodoc"), "systolic/internal/lintfixtures/nodoc")
	checkFixture(t, nodoc, []*Analyzer{pkgdoc})

	hasdoc := loadFixture(t, filepath.Join("pkgdoc", "hasdoc"), "systolic/internal/lintfixtures/hasdoc")
	if diags := runPackage(hasdoc, []*Analyzer{pkgdoc}); len(diags) != 0 {
		t.Errorf("pkgdoc flagged a documented package: %v", diags)
	}
}

// TestDirectiveValidation covers the directive grammar
// programmatically: a want comment cannot share a line with the
// directive it describes, so the fixture's malformed directives are
// asserted by category here. The load path puts the fixture in a
// detorder-critical package so the final assertion — an ignore
// comment does not suppress — has a finding to not-suppress.
func TestDirectiveValidation(t *testing.T) {
	pkg := loadFixture(t, "directives", "systolic/internal/refsim")
	diags := runPackage(pkg, allAnalyzers())

	countBy := func(analyzer, substr string) int {
		n := 0
		for _, d := range diags {
			if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
				n++
			}
		}
		return n
	}
	checks := []struct {
		analyzer, substr string
		want             int
	}{
		{"sysvet", `unknown sysvet directive "ignore"`, 2}, // the retired suppression verb
		{"sysvet", "//sysvet:unordered requires a non-empty reason", 1},
		{"sysvet", "usage: //sysvet:unordered -- <reason>", 1},
		{"sysvet", `unknown sysvet directive "hotpath"`, 1}, // the retired marker
		{"sysvet", `unknown sysvet directive "frobnicate"`, 1},
		{"detorder", "map iteration order escapes", 1}, // the ignore comment must not suppress
	}
	for _, c := range checks {
		if got := countBy(c.analyzer, c.substr); got != c.want {
			t.Errorf("findings [%s] containing %q: got %d, want %d\nall: %v",
				c.analyzer, c.substr, got, c.want, diags)
		}
	}
	if want := 7; len(diags) != want {
		t.Errorf("total findings: got %d, want %d\nall: %v", len(diags), want, diags)
	}
}

// TestRepoIsClean is the acceptance criterion as a test: the full
// suite over the whole module must report nothing. A finding here
// either needs a fix or a reasoned directive at the site.
func TestRepoIsClean(t *testing.T) {
	diags := runAll(universe(t), allAnalyzers())
	for _, d := range diags {
		t.Errorf("sysvet finding: %s", d)
	}
}
