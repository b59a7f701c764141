package dsl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/workload"
)

// parseReference is the parser as it stood before the single-pass
// scanner — strings.Split per document, strings.Fields per line and per
// code line, private name maps — kept verbatim as the oracle the
// scanner is held to. Its one departure from the original: it records
// the topology directive's line, because the size rules it shares with
// Parse through buildTopology report that line.
func parseReference(src string) (*File, error) {
	b := model.NewBuilder()
	cellID := make(map[string]model.CellID)
	msgID := make(map[string]model.MessageID)
	var topoKind string
	var topoArgs []int
	topoLine := 0
	numCells := 0

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("dsl: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topology":
			if len(fields) < 3 {
				return nil, fail("topology needs a kind and size(s)")
			}
			topoKind = fields[1]
			topoArgs = nil
			topoLine = lineNo + 1
			for _, f := range fields[2:] {
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fail("bad topology size %q", f)
				}
				topoArgs = append(topoArgs, n)
			}
		case "cell":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fail("cell needs a name and optional 'host'")
			}
			name := fields[1]
			if _, dup := cellID[name]; dup {
				return nil, fail("duplicate cell %q", name)
			}
			if len(fields) == 3 {
				if fields[2] != "host" {
					return nil, fail("unknown cell attribute %q", fields[2])
				}
				cellID[name] = b.AddHost(name)
			} else {
				cellID[name] = b.AddCell(name)
			}
			numCells++
		case "message":
			if len(fields) != 5 {
				return nil, fail("message needs NAME SENDER RECEIVER WORDS")
			}
			s, ok := cellID[fields[2]]
			if !ok {
				return nil, fail("unknown sender cell %q", fields[2])
			}
			r, ok := cellID[fields[3]]
			if !ok {
				return nil, fail("unknown receiver cell %q", fields[3])
			}
			words, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fail("bad word count %q", fields[4])
			}
			msgID[fields[1]] = b.DeclareMessage(fields[1], s, r, words)
		case "code":
			rest := strings.TrimPrefix(line, "code")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fail("code needs 'code CELL: ops'")
			}
			cellName := strings.TrimSpace(rest[:colon])
			c, ok := cellID[cellName]
			if !ok {
				return nil, fail("unknown cell %q", cellName)
			}
			for _, tok := range strings.Fields(rest[colon+1:]) {
				kind, msg, err := parseOp(tok)
				if err != nil {
					return nil, fail("%v", err)
				}
				id, ok := msgID[msg]
				if !ok {
					return nil, fail("unknown message %q", msg)
				}
				if kind == model.Write {
					b.Write(c, id)
				} else {
					b.Read(c, id)
				}
			}
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}

	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	t, err := buildTopology(topoKind, topoArgs, topoLine, numCells)
	if err != nil {
		return nil, err
	}
	return &File{Program: p, Topology: t}, nil
}

// sameAsReference parses src both ways and reports whether it parsed
// and the first disagreement: error text, Program (DeepEqual, so ids,
// names, nil-ness of empty code and the name index all count), topology
// name, and the content address the daemon caches under.
func sameAsReference(src string) (parsed bool, err error) {
	got, gerr := Parse(src)
	want, werr := parseReference(src)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return false, fmt.Errorf("Parse error %v, reference error %v", gerr, werr)
		}
		return false, nil
	}
	if !reflect.DeepEqual(got.Program, want.Program) {
		return true, fmt.Errorf("programs differ:\n%s\nreference:\n%s", got.Program, want.Program)
	}
	if g, w := got.Topology.Name(), want.Topology.Name(); g != w {
		return true, fmt.Errorf("topology %s, reference %s", g, w)
	}
	if g, w := machine.ScenarioKey(got.Program, got.Topology, nil, nil), machine.ScenarioKey(want.Program, want.Topology, nil, nil); g != w {
		return true, fmt.Errorf("ScenarioKey %s, reference %s", g, w)
	}
	return true, nil
}

// mutationSeeds are the two documents TestParseMatchesReference
// mutates: between them every directive, the host attribute, comments,
// repeated code lines, runs of ops on one message, and two topology
// kinds.
var mutationSeeds = []string{
	fig6Src,
	`# 2x2 mesh, host feeds a row
topology mesh 2 2
cell H host
cell P1
cell P2	# tab before the comment
cell P3
message in H P1 3
message fwd P1 P2 2
message out P2 H 1
code H: W(in) W(in) W(in) R(out)
code P1: R(in) R(in)
code P1: W(fwd) R(in) W(fwd)
code P2: r(fwd) R(fwd) w(out)
`,
}

// junk is the mutation alphabet: every character the grammar gives
// meaning to, the whitespace strings.Fields honours beyond ASCII
// (U+00A0, U+0085), bytes that are not UTF-8 at all, and whole stray
// directives.
var junk = []string{
	"#", ":", "(", ")", " ", "\t", "\n", "\r", "\v", "\u00a0", "\u0085", "\u2003", "\xff", "\xc2", "\x85",
	"0", "1", "7", "-", "+", "x", "W", "R", "w", "H", "P1", "in", "host", "code", "cell", "message", "topology",
	"\ntopology mesh 0 5\n", "\ntopology ring 3\n", "\ntopology linear -3\n", "\ncell Q\n", "\ncell H host\n",
	"\ncode H:\n", "\ncode P1: W(fwd)\n", "\nmessage z H P1 1\n", "\nbogus\n", "W(in)", " R(out)",
}

// mutate applies 1–3 byte-level edits (replace, insert, delete, or
// splice a line elsewhere) to src.
func mutate(rng *rand.Rand, src string) string {
	b := []byte(src)
	for n := 1 + rng.Intn(3); n > 0 && len(b) > 0; n-- {
		at := rng.Intn(len(b))
		j := junk[rng.Intn(len(junk))]
		switch rng.Intn(4) {
		case 0: // replace one byte
			b = append(b[:at:at], append([]byte(j), b[at+1:]...)...)
		case 1: // insert
			b = append(b[:at:at], append([]byte(j), b[at:]...)...)
		case 2: // delete a short run
			end := min(len(b), at+1+rng.Intn(4))
			b = append(b[:at:at], b[end:]...)
		case 3: // move a line
			lines := strings.Split(string(b), "\n")
			i, k := rng.Intn(len(lines)), rng.Intn(len(lines))
			lines[i], lines[k] = lines[k], lines[i]
			b = []byte(strings.Join(lines, "\n"))
		}
	}
	return string(b)
}

// referenceCorpus returns named well-formed documents: the shipped
// examples, the Format text of the benchmark's workload families, and
// 200 generated programs.
func referenceCorpus(t testing.TB) map[string]string {
	t.Helper()
	docs := make(map[string]string)
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "dsl", "*.sys"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/dsl/*.sys: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(f)] = string(b)
	}
	add := func(name string, w *workload.Workload, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs[name] = Format(w.Program, w.Topology)
	}
	w, err := workload.FFT(workload.FFTOptions{LogN: 5})
	add("fft", w, err)
	w, err = workload.Stencil(workload.StencilOptions{Rows: 6, Cols: 5, Iters: 2})
	add("stencil", w, err)
	w, err = workload.Attention(workload.AttentionOptions{Tokens: 40, Experts: 6})
	add("attention", w, err)
	w, err = workload.FIR(workload.FIROptions{Taps: 5, Outputs: 40})
	add("fir", w, err)
	w, err = workload.PipelinedSort(workload.PipelinedSortOptions{Width: 300, Rounds: 4})
	add("pipesort", w, err)
	w, err = workload.MatMul(workload.MatMulOptions{Rows: 4, Inner: 3, Cols: 4})
	add("matmul", w, err)
	for seed := int64(1); seed <= 200; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cyclic: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("gen-%d", seed)] = Format(sc.Program, sc.Topology)
	}
	return docs
}

// TestParseMatchesReference holds the scanner to the old parser on the
// well-formed corpus and on 40 000 seeded mutations of two seed
// documents, most of which are rejected — with the same words.
func TestParseMatchesReference(t *testing.T) {
	for name, src := range referenceCorpus(t) {
		parsed, err := sameAsReference(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !parsed {
			t.Errorf("%s: corpus document does not parse", name)
		}
	}
	const perSeed = 20000
	rejected, accepted := 0, 0
	for i, seed := range mutationSeeds {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for n := 0; n < perSeed; n++ {
			src := mutate(rng, seed)
			parsed, err := sameAsReference(src)
			if err != nil {
				t.Fatalf("seed document %d, mutation %d: %v\n%q", i, n, err, src)
			}
			if parsed {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d mutations: %d rejected with identical text, %d accepted with identical programs", rejected+accepted, rejected, accepted)
	// The differential means little if the mutator only ever produces
	// one kind of document.
	if rejected < perSeed/2 || accepted < perSeed/20 {
		t.Errorf("mutator is lopsided: %d rejected, %d accepted", rejected, accepted)
	}
}

// FuzzParse: the scanner agrees with the reference on arbitrary bytes,
// and a document that parses reaches a fixpoint under Format — the
// text Format writes parses back into a program that formats to the
// same text.
func FuzzParse(f *testing.F) {
	for _, s := range mutationSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := sameAsReference(src); err != nil {
			t.Fatal(err)
		}
		file, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(file.Program, file.Topology)
		again, err := Parse(text)
		if err != nil {
			// Names are whatever the first parse made of the bytes; a
			// name Format cannot write back (one holding '#', say) is
			// not a scanner bug.
			t.Skipf("formatted text does not re-parse: %v", err)
		}
		if got := Format(again.Program, again.Topology); got != text {
			t.Fatalf("Format is not a fixpoint:\n%q\nthen\n%q", text, got)
		}
	})
}
