// Package model defines the abstract objects of Kung's systolic
// communication model (§2 of the paper): cells, messages, and cell
// programs made of syntactic read/write operations.
//
// A Program is the unit every other package operates on. It is
// immutable after Build; analysis packages (crossoff, label) and the
// run-time packages (assign, sim) consume it without copying.
//
// A Builder is the only way to make one. It owns the cell and message
// name tables while a program is assembled (the DSL parser resolves
// names against them), every declaration and op is O(1), and Build
// hands its storage to the Program rather than copying it — the builder
// copies it back before its next mutation, so a built Program never
// changes and a builder can go on to build a larger one.
package model

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// CellID identifies a cell (processor) in the array. The host counts
// as a cell (§2.1). IDs are dense indices 0..NumCells-1.
type CellID int

// MessageID identifies a declared message. IDs are dense indices
// 0..NumMessages-1 in declaration order.
type MessageID int

// OpKind distinguishes the two operations the deadlock machinery cares
// about: reads and writes to messages (§2.2).
type OpKind uint8

const (
	// Read is R(X): consume the next word of message X from the front
	// of an input queue.
	Read OpKind = iota
	// Write is W(X): append the next word of message X to the end of
	// an output queue.
	Write
)

// String returns "R" or "W".
func (k OpKind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Op is a single statement of a cell program: R(Msg) or W(Msg).
type Op struct {
	Kind OpKind
	Msg  MessageID
}

// Message is a declared message: a sequence of Words words traveling
// from Sender to Receiver. All messages are declared before execution
// (§2.1).
type Message struct {
	ID       MessageID
	Name     string
	Sender   CellID
	Receiver CellID
	Words    int
}

// Cell is a processing element. Host marks the distinguished host cell
// (treated as an ordinary cell by all analyses).
type Cell struct {
	ID   CellID
	Name string
	Host bool
}

// Program is a validated systolic program: one op sequence per cell,
// plus the message declarations the ops refer to.
type Program struct {
	cells    []Cell
	messages []Message
	// ops is every cell's code, cell after cell; cell c's is
	// ops[off[c]:off[c+1]].
	ops []Op
	off []int

	byName map[string]MessageID
}

// NumCells returns the number of cells (including the host).
func (p *Program) NumCells() int { return len(p.cells) }

// NumMessages returns the number of declared messages.
func (p *Program) NumMessages() int { return len(p.messages) }

// Cell returns the cell with the given id.
func (p *Program) Cell(id CellID) Cell { return p.cells[id] }

// Cells returns all cells in id order. The returned slice must not be
// modified.
func (p *Program) Cells() []Cell { return p.cells }

// Message returns the declaration of the given message.
func (p *Program) Message(id MessageID) Message { return p.messages[id] }

// Messages returns all message declarations in id order. The returned
// slice must not be modified.
func (p *Program) Messages() []Message { return p.messages }

// MessageByName looks a message up by its declared name.
func (p *Program) MessageByName(name string) (Message, bool) {
	id, ok := p.byName[name]
	if !ok {
		return Message{}, false
	}
	return p.messages[id], true
}

// Code returns the op sequence of one cell: a view of the program's one
// op array, clipped to the cell's segment. The returned slice must not
// be modified.
func (p *Program) Code(c CellID) []Op { return p.ops[p.off[c]:p.off[c+1]:p.off[c+1]] }

// TotalOps returns the total number of read and write operations in
// the program.
func (p *Program) TotalOps() int { return len(p.ops) }

// OpString formats an op using the program's message names, e.g.
// "W(XA)".
func (p *Program) OpString(op Op) string {
	return fmt.Sprintf("%s(%s)", op.Kind, p.messages[op.Msg].Name)
}

// String renders the program as one line per cell, mirroring the
// paper's figures.
func (p *Program) String() string {
	var b strings.Builder
	for c := range p.cells {
		fmt.Fprintf(&b, "%s:", p.cells[c].Name)
		for _, op := range p.Code(CellID(c)) {
			b.WriteByte(' ')
			b.WriteString(p.OpString(op))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder assembles a Program incrementally and validates it on Build.
// The zero Builder is ready to use.
//
// The builder owns the two name tables of a program under construction
// (cell names and message names; CellByName and MessageByName read
// them) and keeps the code as a log: every op in the order it was
// appended, whichever cell it belongs to, in chunks that are never
// copied as the log grows — O(1) amortized per op, O(log ops)
// allocations per program. Build lays the log out cell by cell in one
// array — or, when the ops arrived in that order in one chunk (the DSL
// parser's case), hands the chunk over as it is, with the declarations;
// the first mutation after a successful Build copies that storage back,
// so a built Program never changes and Build can be called again.
type Builder struct {
	cells    []Cell
	messages []Message
	log      [][]Op // every op, in append order
	runs     []run  // which cell appended each stretch of the log
	logged   int    // ops in log
	words    int    // declared words of all messages: a valid program has twice as many ops
	late     bool   // a message was declared after ops were logged: declarations no longer bound the log
	cellID   map[string]CellID
	byName   map[string]MessageID
	err      error // first declaration error; Build reports it
	// shared is set once Build has handed cells, messages, byName and
	// possibly the log's chunk to a Program; own undoes it before the
	// next mutation.
	shared bool
}

// run is a stretch of n consecutive log entries appended to one cell.
type run struct {
	cell CellID
	n    int
}

// minChunk is the room, in ops, of a log chunk of unknown need.
const minChunk = 64

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return new(Builder) }

// NewSizedBuilder returns an empty builder with room for the given
// number of cells, messages and ops, for callers (the DSL parser) that
// can count their declarations up front: exact counts make Build's
// hand-over exact-length, with no append slack for the Program to
// retain, and an op count that is not too low keeps the code in one
// chunk. The counts are hints; exceeding them is not an error.
func NewSizedBuilder(cells, messages, ops int) *Builder {
	b := new(Builder)
	if cells > 0 {
		b.cells = make([]Cell, 0, cells)
		b.runs = make([]run, 0, cells) // a parsed cell's code arrives in one stretch
		b.cellID = make(map[string]CellID, cells)
	}
	// A program without messages keeps a nil message slice, as one
	// assembled on NewBuilder does.
	if messages > 0 {
		b.messages = make([]Message, 0, messages)
		b.byName = make(map[string]MessageID, messages)
	}
	if ops > 0 {
		b.log = [][]Op{make([]Op, 0, ops)}
	}
	return b
}

// fail records a declaration error; the first one wins.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// own makes the builder's storage private again after Build shared it
// with a Program. Every mutator calls it first.
func (b *Builder) own() {
	if b.shared {
		b.unshare()
	}
}

func (b *Builder) unshare() {
	b.shared = false
	b.cells = slices.Clone(b.cells)
	b.messages = slices.Clone(b.messages)
	if len(b.log) == 1 {
		b.log[0] = slices.Clone(b.log[0]) // a lone chunk may be the Program's op array
	}
	b.byName = maps.Clone(b.byName)
}

// AddCell declares a cell and returns its id. Cell names must be
// unique and non-empty.
func (b *Builder) AddCell(name string) CellID {
	return b.addCell(name, false)
}

// AddHost declares the host cell (§2.1 treats the host as a cell).
func (b *Builder) AddHost(name string) CellID {
	return b.addCell(name, true)
}

func (b *Builder) addCell(name string, host bool) CellID {
	b.own()
	if name == "" {
		b.fail("model: empty cell name")
	}
	if b.cellID == nil {
		b.cellID = make(map[string]CellID)
	}
	id := CellID(len(b.cells))
	b.cells = append(b.cells, Cell{ID: id, Name: name, Host: host})
	// One hash of the name, not a lookup and then a store: a store
	// that does not grow the table overwrote an earlier declaration.
	before := len(b.cellID)
	b.cellID[name] = id
	if len(b.cellID) == before {
		b.fail("model: duplicate cell name %q", name)
	}
	return id
}

// AddCells declares n cells named prefix1..prefixN and returns their ids.
func (b *Builder) AddCells(prefix string, n int) []CellID {
	ids := make([]CellID, n)
	for i := range ids {
		ids[i] = b.AddCell(prefix + strconv.Itoa(i+1))
	}
	return ids
}

// CellByName looks a declared cell up by name (the latest declaration,
// should a name have been declared twice — Build rejects that program
// anyway).
func (b *Builder) CellByName(name string) (CellID, bool) {
	id, ok := b.cellID[name]
	return id, ok
}

// MessageByName looks a declared message up by name, with the same
// duplicate rule as CellByName.
func (b *Builder) MessageByName(name string) (MessageID, bool) {
	id, ok := b.byName[name]
	return id, ok
}

// DeclareMessage declares a message with the given name, endpoints and
// word count, returning its id. Word count must be positive; names
// must be unique.
func (b *Builder) DeclareMessage(name string, sender, receiver CellID, words int) MessageID {
	b.own()
	if b.byName == nil {
		b.byName = make(map[string]MessageID)
	}
	id := MessageID(len(b.messages))
	before := len(b.byName)
	b.byName[name] = id // as in addCell: no growth means a duplicate
	if name == "" {
		b.fail("model: empty message name")
	}
	if len(b.byName) == before {
		b.fail("model: duplicate message name %q", name)
	}
	if words <= 0 {
		b.fail("model: message %q: word count %d not positive", name, words)
	}
	if sender == receiver {
		b.fail("model: message %q: sender and receiver are both cell %d", name, sender)
	}
	b.messages = append(b.messages, Message{ID: id, Name: name, Sender: sender, Receiver: receiver, Words: words})
	b.words += max(words, 0)
	b.late = b.late || b.logged > 0
	return id
}

// declared reports whether c is a declared cell, recording the builder
// error for an op on one that is not: a Program has code only for its
// declared cells, so such an op has nowhere to go, and dropping it
// silently would surface later as an unrelated word-count mismatch.
func (b *Builder) declared(c CellID) bool {
	if c < 0 || int(c) >= len(b.cells) {
		b.fail("model: op on undeclared cell %d", c)
		return false
	}
	return true
}

// extend logs n more ops for cell c and returns the first stretch of
// them for the caller to fill: what the log's last chunk has room for,
// starting a new chunk when it has none. A new chunk at most doubles
// the log and, while every message was declared before the first op,
// takes no more than the declared messages still call for: exact for a
// valid program, never sized on a declaration alone. Once declarations
// and code interleave, the chunks just double, O(log ops) of them —
// capped by the words declared so far, they would be a few ops each.
func (b *Builder) extend(c CellID, n int) []Op {
	last := len(b.log) - 1
	if last < 0 || len(b.log[last]) == cap(b.log[last]) {
		room := max(b.logged, minChunk)
		if rest := 2*b.words - b.logged; rest > 0 && !b.late {
			room = min(room, rest)
		}
		b.log = append(b.log, make([]Op, 0, max(n, room)))
		last++
	}
	chunk := b.log[last]
	n = min(n, cap(chunk)-len(chunk))
	b.log[last] = chunk[:len(chunk)+n]
	b.logged += n
	if k := len(b.runs) - 1; k >= 0 && b.runs[k].cell == c {
		b.runs[k].n += n
	} else {
		b.runs = append(b.runs, run{c, n})
	}
	return chunk[len(chunk) : len(chunk)+n]
}

// AppendOps appends ops, in order, to cell c's program: the bulk form
// of Write and Read. The builder copies ops; the caller may reuse it.
func (b *Builder) AppendOps(c CellID, ops []Op) *Builder {
	b.own()
	if b.declared(c) {
		for len(ops) > 0 {
			ops = ops[copy(b.extend(c, len(ops)), ops):]
		}
	}
	return b
}

// Write appends a W(msg) op to cell c's program. The cell must have
// been declared.
func (b *Builder) Write(c CellID, msg MessageID) *Builder {
	return b.AppendOps(c, []Op{{Kind: Write, Msg: msg}})
}

// Read appends an R(msg) op to cell c's program. The cell must have
// been declared.
func (b *Builder) Read(c CellID, msg MessageID) *Builder {
	return b.AppendOps(c, []Op{{Kind: Read, Msg: msg}})
}

// WriteN appends n W(msg) ops.
func (b *Builder) WriteN(c CellID, msg MessageID, n int) *Builder {
	return b.repeat(c, Op{Kind: Write, Msg: msg}, n)
}

// ReadN appends n R(msg) ops.
func (b *Builder) ReadN(c CellID, msg MessageID, n int) *Builder {
	return b.repeat(c, Op{Kind: Read, Msg: msg}, n)
}

func (b *Builder) repeat(c CellID, op Op, n int) *Builder {
	b.own()
	if n > 0 && b.declared(c) {
		for n > 0 {
			stretch := b.extend(c, n)
			for i := range stretch {
				stretch[i] = op
			}
			n -= len(stretch)
		}
	}
	return b
}

// layout returns the program's op array and each cell's offset in it:
// the log's one chunk when the ops arrived cell by cell in cell order,
// otherwise a new array of exactly the log's size, gathered by cell.
func (b *Builder) layout() (ops []Op, off []int) {
	off = make([]int, len(b.cells)+1)
	inOrder := len(b.log) <= 1
	for i, r := range b.runs {
		off[r.cell+1] += r.n
		inOrder = inOrder && (i == 0 || b.runs[i-1].cell < r.cell)
	}
	for c := range b.cells {
		off[c+1] += off[c]
	}
	if inOrder {
		if b.logged > 0 {
			ops = b.log[0][:b.logged:b.logged]
		}
		return ops, off
	}
	ops = make([]Op, b.logged)
	next := slices.Clone(off[:len(b.cells)])
	chunk, at := 0, 0
	for _, r := range b.runs {
		for n := r.n; n > 0; {
			if at == len(b.log[chunk]) {
				chunk, at = chunk+1, 0
			}
			k := copy(ops[next[r.cell]:next[r.cell]+n], b.log[chunk][at:])
			next[r.cell], at, n = next[r.cell]+k, at+k, n-k
		}
	}
	return ops, off
}

// Build validates and freezes the program. Validation enforces the
// paper's §2 conventions:
//
//   - every W(X) appears only in X's sender program, every R(X) only in
//     X's receiver program;
//   - the number of W(X) ops equals the number of R(X) ops equals X's
//     declared word count (each op moves exactly one word);
//   - cell and message references are in range.
//
// On success the Program takes over the builder's declarations and its
// message-name table without a copy (see Builder).
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.cells) == 0 {
		return nil, fmt.Errorf("model: program has no cells")
	}
	writes := make([]int, len(b.messages))
	reads := make([]int, len(b.messages))
	ops, off := b.layout()
	for c := range b.cells {
		for i, op := range ops[off[c]:off[c+1]] {
			if int(op.Msg) < 0 || int(op.Msg) >= len(b.messages) {
				return nil, fmt.Errorf("model: cell %s op %d references unknown message %d", b.cells[c].Name, i, op.Msg)
			}
			m := &b.messages[op.Msg]
			switch op.Kind {
			case Write:
				if m.Sender != CellID(c) {
					return nil, fmt.Errorf("model: W(%s) in cell %s, but %s's sender is %s",
						m.Name, b.cells[c].Name, m.Name, b.cells[m.Sender].Name)
				}
				writes[op.Msg]++
			case Read:
				if m.Receiver != CellID(c) {
					return nil, fmt.Errorf("model: R(%s) in cell %s, but %s's receiver is %s",
						m.Name, b.cells[c].Name, m.Name, b.cells[m.Receiver].Name)
				}
				reads[op.Msg]++
			default:
				return nil, fmt.Errorf("model: cell %s op %d has invalid kind %d", b.cells[c].Name, i, op.Kind)
			}
		}
	}
	for id, m := range b.messages {
		if writes[id] != m.Words {
			return nil, fmt.Errorf("model: message %s declares %d words but sender writes %d", m.Name, m.Words, writes[id])
		}
		if reads[id] != m.Words {
			return nil, fmt.Errorf("model: message %s declares %d words but receiver reads %d", m.Name, m.Words, reads[id])
		}
	}
	if b.byName == nil {
		b.byName = make(map[string]MessageID)
	}
	b.shared = true
	return &Program{cells: b.cells, messages: b.messages, ops: ops, off: off, byName: b.byName}, nil
}

// MustBuild is Build that panics on error; for tests and fixed example
// programs whose validity is static.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Rebuild returns a validated copy of p with its declarations and code
// rewritten: message m is declared words(m) words long, and 0 drops it
// (the messages after it are renumbered, in order); cell c runs code(c),
// which must use p's message ids, less any op on a dropped message. A
// nil words or code keeps that part of p as it is. Cells, names,
// endpoints and the host flag are copied unchanged; Build validates the
// result.
func Rebuild(p *Program, words func(Message) int, code func(CellID) []Op) (*Program, error) {
	b := NewSizedBuilder(len(p.cells), len(p.messages), len(p.ops))
	for _, c := range p.cells {
		b.addCell(c.Name, c.Host)
	}
	renumber := make([]MessageID, len(p.messages))
	for _, m := range p.messages {
		n := m.Words
		if words != nil {
			n = words(m)
		}
		renumber[m.ID] = -1
		if n != 0 {
			renumber[m.ID] = b.DeclareMessage(m.Name, m.Sender, m.Receiver, n)
		}
	}
	var ops []Op
	for c := range p.cells {
		src := p.Code(CellID(c))
		if code != nil {
			src = code(CellID(c))
		}
		ops = ops[:0]
		for _, op := range src {
			if op.Msg = renumber[op.Msg]; op.Msg >= 0 {
				ops = append(ops, op)
			}
		}
		b.AppendOps(CellID(c), ops)
	}
	return b.Build()
}
