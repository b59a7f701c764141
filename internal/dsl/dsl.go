// Package dsl parses and formats a small text notation for systolic
// programs, so programs can live in files, tests, and tool invocations
// in the same shape the paper prints them.
//
// Grammar (line oriented; '#' starts a comment):
//
//	topology linear N | ring N | mesh R C
//	cell NAME [host]
//	message NAME SENDER RECEIVER WORDS
//	code CELL: OP OP OP …
//
// where OP is R(MSG) or W(MSG). Multiple code lines for the same cell
// append. The topology line is optional; Linear(numCells) is the
// default, and a declared topology may have at most 65536 cells
// (maxTopologyCells), each size at least 1.
//
// Parse is a single pass over the text: no per-line or per-token
// slices, names resolved against the model.Builder's own tables (the
// parser keeps none), whitespace exactly as strings.Fields defines it.
// Format writes into one buffer sized from the declarations. Both are
// linear in the text, and the parser that this one replaced is kept in
// reference_test.go as the oracle for what parses and with which error.
package dsl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// File is a parsed DSL document: a validated program plus its
// (possibly defaulted) topology.
type File struct {
	Program  *model.Program
	Topology topology.Topology
}

// maxTopologyCells is the largest array a topology directive may
// declare: 65536 cells, four times the largest committed workload.
// Parse builds the topology eagerly and a one-line directive can name
// any size, so without a ceiling a 40-byte document could ask for any
// amount of memory; at the ceiling it asks for about 30 MB. It is a
// constant, not an option: programs that need a larger array build the
// topology through the library instead of the text notation.
const maxTopologyCells = 1 << 16

// Parse reads a DSL document in one pass over src: lines are cut at
// '\n', fields are scanned in place (nextField), and names are resolved
// against the model.Builder's own tables, so the cost is linear in
// len(src) and the allocations are a few per document, not per line.
func Parse(src string) (*File, error) {
	b := model.NewSizedBuilder(countDeclarations(src))
	var (
		topoKind string
		topoArgs []int
		topoLine int
		ops      []model.Op // one code line's ops, reused across lines
	)
	for lineNo, rest, more := 1, src, true; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		directive, args := nextField(line)
		switch directive {
		case "":
			// blank or comment-only line
		case "topology":
			kind, sizes := nextField(args)
			if first, _ := nextField(sizes); first == "" {
				return nil, fail(lineNo, "topology needs a kind and size(s)")
			}
			topoKind, topoArgs, topoLine = kind, topoArgs[:0], lineNo
			for {
				var f string
				if f, sizes = nextField(sizes); f == "" {
					break
				}
				n, err := strconv.Atoi(f)
				if err != nil {
					return nil, fail(lineNo, "bad topology size %q", f)
				}
				topoArgs = append(topoArgs, n)
			}
		case "cell":
			name, args := nextField(args)
			attr, args := nextField(args)
			if extra, _ := nextField(args); name == "" || extra != "" {
				return nil, fail(lineNo, "cell needs a name and optional 'host'")
			}
			if _, dup := b.CellByName(name); dup {
				return nil, fail(lineNo, "duplicate cell %q", name)
			}
			switch attr {
			case "":
				b.AddCell(name)
			case "host":
				b.AddHost(name)
			default:
				return nil, fail(lineNo, "unknown cell attribute %q", attr)
			}
		case "message":
			name, args := nextField(args)
			sender, args := nextField(args)
			receiver, args := nextField(args)
			count, args := nextField(args)
			if extra, _ := nextField(args); count == "" || extra != "" {
				return nil, fail(lineNo, "message needs NAME SENDER RECEIVER WORDS")
			}
			s, ok := b.CellByName(sender)
			if !ok {
				return nil, fail(lineNo, "unknown sender cell %q", sender)
			}
			r, ok := b.CellByName(receiver)
			if !ok {
				return nil, fail(lineNo, "unknown receiver cell %q", receiver)
			}
			words, err := strconv.Atoi(count)
			if err != nil {
				return nil, fail(lineNo, "bad word count %q", count)
			}
			b.DeclareMessage(name, s, r, words)
		case "code":
			cellName, opText, ok := strings.Cut(args, ":")
			if !ok {
				return nil, fail(lineNo, "code needs 'code CELL: ops'")
			}
			cellName = strings.TrimSpace(cellName)
			c, ok := b.CellByName(cellName)
			if !ok {
				return nil, fail(lineNo, "unknown cell %q", cellName)
			}
			ops = ops[:0]
			// Runs of ops on one message are common (W(X) W(X) …), so
			// the previous op's name is compared before hashing.
			var prevName string
			var prevID model.MessageID
			for {
				var tok string
				if tok, opText = nextField(opText); tok == "" {
					break
				}
				kind, name, err := parseOp(tok)
				if err != nil {
					return nil, fail(lineNo, "%v", err)
				}
				if name != prevName {
					id, ok := b.MessageByName(name)
					if !ok {
						return nil, fail(lineNo, "unknown message %q", name)
					}
					prevName, prevID = name, id
				}
				ops = append(ops, model.Op{Kind: kind, Msg: prevID})
			}
			b.AppendOps(c, ops)
		default:
			return nil, fail(lineNo, "unknown directive %q", directive)
		}
	}

	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	t, err := buildTopology(topoKind, topoArgs, topoLine, p.NumCells())
	if err != nil {
		return nil, err
	}
	return &File{Program: p, Topology: t}, nil
}

func fail(lineNo int, format string, args ...any) error {
	return fmt.Errorf("dsl: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

// asciiSpace marks the ASCII bytes strings.Fields treats as whitespace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first whitespace-delimited field of s and the
// text after it; field is "" when s holds only whitespace. Whitespace
// is exactly what strings.Fields and strings.TrimSpace mean by it — the
// six ASCII characters, and unicode.IsSpace beyond them (U+0085 and
// U+00A0 among others; a byte that is not valid UTF-8 is not a space)
// — because which documents parse, and into what names, is observable:
// the daemon's cache keys and 400 bodies depend on it.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if w := wideSpaceWidth(s[i:]); w > 0 {
			i += w
		} else {
			break
		}
	}
	// A byte inside a multi-byte character never starts a space, so
	// the field is walked a byte at a time.
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
		} else if wideSpaceWidth(s[i:]) > 0 {
			break
		}
		i++
	}
	return s[start:i], s[i:]
}

// wideSpaceWidth returns the width in bytes of the non-ASCII whitespace
// character s starts with, or 0 when it starts with anything else.
func wideSpaceWidth(s string) int {
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// countDeclarations counts the lines that start with "cell" and with
// "message", and the '(' on the lines that start with "code" (one per
// op), to size the builder before the parse. It is a cheap
// over-approximation by prefix, not a parse: a miscount costs only
// spare capacity or one regrowth.
func countDeclarations(src string) (cells, messages, ops int) {
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimLeft(line, " \t")
		switch {
		case strings.HasPrefix(line, "cell"):
			cells++
		case strings.HasPrefix(line, "message"):
			messages++
		case strings.HasPrefix(line, "code"):
			ops += strings.Count(line, "(")
		}
	}
	return cells, messages, ops
}

func parseOp(tok string) (model.OpKind, string, error) {
	if len(tok) < 4 || tok[1] != '(' || tok[len(tok)-1] != ')' {
		return 0, "", fmt.Errorf("bad op %q (want R(MSG) or W(MSG))", tok)
	}
	name := tok[2 : len(tok)-1]
	switch tok[0] {
	case 'R', 'r':
		return model.Read, name, nil
	case 'W', 'w':
		return model.Write, name, nil
	}
	return 0, "", fmt.Errorf("bad op %q (want R(MSG) or W(MSG))", tok)
}

// buildTopology constructs the declared topology (the directive on
// line `line`), or Linear(numCells) when there was no directive. Sizes
// are checked before anything is constructed: a size below 1, or an
// array of more than maxTopologyCells cells (which also covers a mesh
// whose rows×cols would overflow), is an error carrying the line.
func buildTopology(kind string, args []int, line, numCells int) (topology.Topology, error) {
	switch kind {
	case "":
		return topology.Linear(numCells), nil
	case "linear", "ring":
		if len(args) != 1 {
			return nil, fmt.Errorf("dsl: topology %s needs one size", kind)
		}
	case "mesh":
		if len(args) != 2 {
			return nil, fmt.Errorf("dsl: topology mesh needs rows and cols")
		}
	default:
		return nil, fmt.Errorf("dsl: unknown topology %q", kind)
	}
	cells := 1
	for _, n := range args {
		if n < 1 {
			return nil, fail(line, "topology size %d is less than 1", n)
		}
		if n > maxTopologyCells/cells {
			return nil, fail(line, "topology %s declares more than %d cells", kind, maxTopologyCells)
		}
		cells *= n
	}
	switch kind {
	case "linear":
		return topology.Linear(args[0]), nil
	case "ring":
		return topology.Ring(args[0]), nil
	}
	return topology.Mesh2D(args[0], args[1]), nil
}

// Format renders a program (and optional topology description) back
// into parseable DSL text. Parse(Format(p)) reproduces the program.
// The text is written straight into one buffer sized up front from the
// declarations (a validated program has exactly 2×Words ops per
// message), so the cost is one allocation plus the bytes.
func Format(p *model.Program, t topology.Topology) string {
	var topo string
	if t != nil {
		if line, ok := topoLine(t); ok {
			topo = "topology " + line + "\n"
		}
	}
	size := len(topo)
	for _, c := range p.Cells() {
		// "cell NAME host\n", and "code NAME:\n" for a cell with code.
		size += 2*len(c.Name) + len("cell  host\n") + len("code :\n")
	}
	for _, m := range p.Messages() {
		// "message NAME SENDER RECEIVER WORDS\n" with room for any int,
		// then " W(NAME)" and " R(NAME)" once per word.
		size += len("message    \n") + 20 + len(m.Name) + len(p.Cell(m.Sender).Name) + len(p.Cell(m.Receiver).Name)
		size += 2 * m.Words * (len(" W()") + len(m.Name))
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(topo)
	for _, c := range p.Cells() {
		b.WriteString("cell ")
		b.WriteString(c.Name)
		if c.Host {
			b.WriteString(" host")
		}
		b.WriteByte('\n')
	}
	var num [20]byte
	for _, m := range p.Messages() {
		b.WriteString("message ")
		b.WriteString(m.Name)
		b.WriteByte(' ')
		b.WriteString(p.Cell(m.Sender).Name)
		b.WriteByte(' ')
		b.WriteString(p.Cell(m.Receiver).Name)
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], int64(m.Words), 10))
		b.WriteByte('\n')
	}
	msgs := p.Messages()
	for _, c := range p.Cells() {
		code := p.Code(c.ID)
		if len(code) == 0 {
			continue
		}
		b.WriteString("code ")
		b.WriteString(c.Name)
		b.WriteByte(':')
		for _, op := range code {
			if op.Kind == model.Read {
				b.WriteString(" R(")
			} else {
				b.WriteString(" W(")
			}
			b.WriteString(msgs[op.Msg].Name)
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// topoLine renders the topology directive for the kinds the grammar
// supports; arbitrary graphs have no DSL syntax and are omitted (Parse
// then defaults to a linear array).
func topoLine(t topology.Topology) (string, bool) {
	name := t.Name()
	for _, kind := range []string{"linear", "ring", "mesh"} {
		if strings.HasPrefix(name, kind+"(") {
			args := strings.TrimSuffix(strings.TrimPrefix(name, kind+"("), ")")
			args = strings.ReplaceAll(args, "x", " ")
			return kind + " " + args, true
		}
	}
	return "", false
}
