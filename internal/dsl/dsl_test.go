package dsl

import (
	"strconv"
	"strings"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/model"
)

const fig6Src = `
# Fig 6: cyclic messages, deadlock-free.
topology ring 4
cell C1
cell C2
cell C3
cell C4
message A C1 C2 1
message B C2 C3 1
message C C3 C4 1
message D C4 C1 1
code C1: W(A) R(D)
code C2: R(A) W(B)
code C3: R(B) W(C)
code C4: R(C) W(D)
`

func TestParseFig6(t *testing.T) {
	f, err := Parse(fig6Src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Program.NumCells() != 4 || f.Program.NumMessages() != 4 {
		t.Fatalf("cells=%d msgs=%d", f.Program.NumCells(), f.Program.NumMessages())
	}
	if f.Topology.Name() != "ring(4)" {
		t.Fatalf("topology %s", f.Topology.Name())
	}
	if !crossoff.Classify(f.Program, crossoff.Options{}) {
		t.Fatal("parsed Fig 6 not deadlock-free")
	}
}

func TestParseDefaultsToLinear(t *testing.T) {
	f, err := Parse(`
cell A
cell B
message M A B 1
code A: W(M)
code B: R(M)
`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Topology.Name() != "linear(2)" {
		t.Fatalf("topology %s", f.Topology.Name())
	}
}

func TestParseHostAttribute(t *testing.T) {
	f, err := Parse(`
cell H host
cell C
message M H C 1
code H: W(M)
code C: R(M)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Program.Cell(0).Host {
		t.Fatal("host attribute lost")
	}
}

func TestParseMultipleCodeLinesAppend(t *testing.T) {
	f, err := Parse(`
cell A
cell B
message M A B 3
code A: W(M)
code A: W(M) W(M)
code B: R(M) R(M) R(M)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Program.Code(0)) != 3 {
		t.Fatalf("code A has %d ops", len(f.Program.Code(0)))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"bogus directive", "unknown directive"},
		{"cell", "cell needs"},
		{"cell A weird", "unknown cell attribute"},
		{"cell A\ncell A", "duplicate cell"},
		{"cell A\nmessage M A B 1", "unknown receiver"},
		{"cell A\ncell B\nmessage M A B x", "bad word count"},
		{"cell A\ncell B\nmessage M A B 1\ncode C: W(M)", "unknown cell"},
		{"cell A\ncell B\nmessage M A B 1\ncode A: W(X)", "unknown message"},
		{"cell A\ncell B\nmessage M A B 1\ncode A: FOO", "bad op"},
		{"cell A\ncell B\nmessage M A B 1\ncode A W(M)", "code needs"},
		{"topology bogus 3\ncell A\ncell B\nmessage M A B 1\ncode A: W(M)\ncode B: R(M)", "unknown topology"},
		{"topology linear\ncell A", "topology needs"},
		{"topology linear x\ncell A", "bad topology size"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestParseValidationError(t *testing.T) {
	// Word count mismatch surfaces model validation.
	_, err := Parse(`
cell A
cell B
message M A B 2
code A: W(M)
code B: R(M) R(M)
`)
	if err == nil {
		t.Fatal("validation error not surfaced")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f, err := Parse(fig6Src)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f.Program, f.Topology)
	g, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if g.Program.NumCells() != f.Program.NumCells() || g.Program.NumMessages() != f.Program.NumMessages() {
		t.Fatal("round trip lost structure")
	}
	for c := 0; c < f.Program.NumCells(); c++ {
		a, b := f.Program.Code(model.CellID(c)), g.Program.Code(model.CellID(c))
		if len(a) != len(b) {
			t.Fatalf("cell %d code length differs", c)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cell %d op %d differs", c, i)
			}
		}
	}
	if g.Topology.Name() != "ring(4)" {
		t.Fatalf("topology %s after round trip", g.Topology.Name())
	}
}

func TestFormatMeshRoundTrip(t *testing.T) {
	src := `
topology mesh 2 2
cell P1
cell P2
cell P3
cell P4
message M P1 P2 1
code P1: W(M)
code P2: R(M)
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Parse(Format(f.Program, f.Topology))
	if err != nil {
		t.Fatal(err)
	}
	if g.Topology.Name() != "mesh(2x2)" {
		t.Fatalf("topology %s", g.Topology.Name())
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	f, err := Parse("# lead\n\ncell A # trailing\ncell B\nmessage M A B 1 # words\ncode A: W(M)\ncode B: R(M)\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Program.NumCells() != 2 {
		t.Fatal("comment handling broke parsing")
	}
}

// TestParseTopologySizes: Parse constructs the topology eagerly, so the
// sizes of a topology directive are checked first — below 1, or an
// array above maxTopologyCells (which is also how a rows×cols product
// that would overflow int is caught) — and the error names the
// directive's line. The body is a valid two-cell program, so only the
// directive decides.
func TestParseTopologySizes(t *testing.T) {
	const body = "\ncell A\ncell B\nmessage M A B 1\ncode A: W(M)\ncode B: R(M)\n"
	max := strconv.Itoa(maxTopologyCells)
	cases := []struct {
		directive string
		want      string // "" = parses, topology name in name
		name      string
	}{
		{"topology linear 2", "", "linear(2)"},
		{"topology ring 3", "", "ring(3)"},
		{"topology mesh 1 2", "", "mesh(1x2)"},
		{"topology mesh 256 256", "", "mesh(256x256)"}, // exactly maxTopologyCells
		{"topology linear -3", "dsl: line 2: topology size -3 is less than 1", ""},
		{"topology linear 0", "dsl: line 2: topology size 0 is less than 1", ""},
		{"topology ring 0", "dsl: line 2: topology size 0 is less than 1", ""},
		{"topology mesh 0 5", "dsl: line 2: topology size 0 is less than 1", ""},
		{"topology mesh 5 0", "dsl: line 2: topology size 0 is less than 1", ""},
		{"topology mesh -1 -1", "dsl: line 2: topology size -1 is less than 1", ""},
		{"topology mesh 3037000500 3037000500", "dsl: line 2: topology mesh declares more than " + max + " cells", ""},
		{"topology mesh 4294967296 4294967296", "dsl: line 2: topology mesh declares more than " + max + " cells", ""},
		{"topology mesh 256 257", "dsl: line 2: topology mesh declares more than " + max + " cells", ""},
		{"topology linear " + strconv.Itoa(maxTopologyCells+1), "dsl: line 2: topology linear declares more than " + max + " cells", ""},
		{"topology ring 9223372036854775807", "dsl: line 2: topology ring declares more than " + max + " cells", ""},
		// Arity and kind errors keep their old text and win over sizes.
		{"topology linear 2 -1", "dsl: topology linear needs one size", ""},
		{"topology mesh -4", "dsl: topology mesh needs rows and cols", ""},
		{"topology torus -4 -4", `dsl: unknown topology "torus"`, ""},
	}
	for _, c := range cases {
		f, err := Parse("# sizes\n" + c.directive + body)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.directive, err)
		case c.want == "" && f.Topology.Name() != c.name:
			t.Errorf("%s: topology %s, want %s", c.directive, f.Topology.Name(), c.name)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %q", c.directive, err, c.want)
		}
	}
	// The last directive wins, as it always has: a bad one that is
	// overridden is not an error.
	if _, err := Parse("topology mesh 0 0\ntopology linear 2" + body); err != nil {
		t.Errorf("overridden bad directive: %v", err)
	}
}
