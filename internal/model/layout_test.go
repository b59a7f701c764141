package model

import (
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// scattered assembles a valid random program through every op-appending
// method, the appends interleaved across cells in random order, on a
// builder made by mk. It returns the builder, the program and, as the
// reference, the ops each cell was given, in order.
func scattered(t testing.TB, rng *rand.Rand, mk func() *Builder, cells, msgs, maxWords int) (*Builder, *Program, [][]Op) {
	t.Helper()
	b := mk()
	ids := b.AddCells("C", cells)
	type stream struct {
		cell CellID
		op   Op
		left int
	}
	var streams []stream
	for i := 0; i < msgs; i++ {
		from := rng.Intn(cells)
		to := (from + 1 + rng.Intn(cells-1)) % cells
		words := 1 + rng.Intn(maxWords)
		m := b.DeclareMessage("M"+strconv.Itoa(i), ids[from], ids[to], words)
		streams = append(streams, stream{ids[from], Op{Write, m}, words}, stream{ids[to], Op{Read, m}, words})
	}
	want := make([][]Op, cells)
	for len(streams) > 0 {
		i := rng.Intn(len(streams))
		s := &streams[i]
		n := 1 + rng.Intn(s.left)
		switch rng.Intn(3) {
		case 0:
			n = 1
			if s.op.Kind == Write {
				b.Write(s.cell, s.op.Msg)
			} else {
				b.Read(s.cell, s.op.Msg)
			}
		case 1:
			if s.op.Kind == Write {
				b.WriteN(s.cell, s.op.Msg, n)
			} else {
				b.ReadN(s.cell, s.op.Msg, n)
			}
		default:
			ops := make([]Op, n)
			for k := range ops {
				ops[k] = s.op
			}
			b.AppendOps(s.cell, ops)
		}
		for k := 0; k < n; k++ {
			want[s.cell] = append(want[s.cell], s.op)
		}
		if s.left -= n; s.left == 0 {
			streams = slices.Delete(streams, i, i+1)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b, p, want
}

// TestBuildGathersTheLog: however the appends were interleaved, sized or
// not, each cell's code is the ops it was given, in order; the code of
// all cells is one array; and when the messages were declared first the
// log's chunks hold exactly the program's ops, with no slack.
func TestBuildGathersTheLog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		cells, msgs := 2+rng.Intn(12), 1+rng.Intn(40)
		hint := rng.Intn(3) * rng.Intn(200) // none, short or roomy
		mk := func() *Builder { return NewSizedBuilder(cells, msgs, hint) }
		if round%2 == 0 {
			mk = NewBuilder
		}
		b, p, want := scattered(t, rng, mk, cells, msgs, 12)
		total := 0
		for c, ops := range want {
			if got := p.Code(CellID(c)); !slices.Equal(got, ops) {
				t.Fatalf("round %d: cell %d has code %v, was given %v", round, c, got, ops)
			}
			total += len(ops)
		}
		if p.TotalOps() != total || len(p.ops) != total || cap(p.ops) != total {
			t.Fatalf("round %d: %d ops in an array of length %d, capacity %d; TotalOps %d", round, total, len(p.ops), cap(p.ops), p.TotalOps())
		}
		room := 0
		for _, chunk := range b.log {
			room += cap(chunk)
		}
		if round%2 == 0 && room != total {
			t.Fatalf("round %d: log chunks hold %d ops for a program of %d", round, room, total)
		}
	}
}

// TestCodeViewsAreClipped: cells share one op array, so Code must clip
// each view to its segment — an append to one cell's code reallocates
// instead of overwriting the next cell's first op.
func TestCodeViewsAreClipped(t *testing.T) {
	_, p, want := scattered(t, rand.New(rand.NewSource(2)), NewBuilder, 8, 30, 6)
	for c := range want {
		code := p.Code(CellID(c))
		if cap(code) != len(code) {
			t.Fatalf("cell %d: code has length %d and capacity %d", c, len(code), cap(code))
		}
		_ = append(code, Op{Kind: Read, Msg: -1})
	}
	for c, ops := range want {
		if !slices.Equal(p.Code(CellID(c)), ops) {
			t.Errorf("cell %d: appending to its neighbour's code changed it", c)
		}
	}
}

// TestLogIsNotSizedOnDeclarationsAlone: a declaration is a few bytes of
// input however many words it claims, so the room the builder makes for
// ops follows the ops it has been given — at most double — never the
// declared total by itself.
func TestLogIsNotSizedOnDeclarationsAlone(t *testing.T) {
	b := NewBuilder()
	c1, c2 := b.AddCell("C1"), b.AddCell("C2")
	m := b.DeclareMessage("Huge", c1, c2, 1<<40)
	for given := 1; given <= 1000; given++ {
		b.Write(c1, m)
		room := 0
		for _, chunk := range b.log {
			room += cap(chunk)
		}
		if room > max(2*given, 2*minChunk) {
			t.Fatalf("the log has room for %d ops after %d appends", room, given)
		}
	}
	if _, err := b.Build(); err == nil {
		t.Error("a message 2^40 words short, yet Build succeeded")
	}
}

// TestInterleavedBuildChunksLogarithmic: a build that declares each
// message just before its ops — Attention's shape, 256 tokens routed
// round-robin through 16 experts into a combiner — keeps its log in
// O(log ops) chunks, not one chunk per declaration, and Build still
// gathers every cell's code in order.
func TestInterleavedBuildChunksLogarithmic(t *testing.T) {
	const tokens, experts = 256, 16
	b := NewBuilder()
	router := b.AddHost("Router")
	xs := b.AddCells("X", experts)
	comb := b.AddCell("Comb")
	want := make([][]Op, experts+2)
	for i := 0; i < tokens; i++ {
		x := xs[i%experts]
		tok := b.DeclareMessage("T"+strconv.Itoa(i), router, x, 1)
		out := b.DeclareMessage("O"+strconv.Itoa(i), x, comb, 1)
		b.Write(router, tok).Read(x, tok).Write(x, out).Read(comb, out)
		want[router] = append(want[router], Op{Write, tok})
		want[x] = append(want[x], Op{Read, tok}, Op{Write, out})
		want[comb] = append(want[comb], Op{Read, out})
	}
	ops := 4 * tokens
	if limit := bits.Len(uint(ops)); len(b.log) > limit {
		t.Errorf("%d ops logged in %d chunks, more than %d", ops, len(b.log), limit)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for c, code := range want {
		if got := p.Code(CellID(c)); !slices.Equal(got, code) {
			t.Fatalf("cell %d has code %v, was given %v", c, got, code)
		}
	}
}

// TestAllocGateBuilder: assembling a program op by op across
// many cells costs a logarithmic number of log chunks, run-list growths
// and name-map tables plus a fixed number of arrays, so twice the cells
// and ops add a few allocations, not one or more per cell.
func TestAllocGateBuilder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cellNames, names := make([]string, 2048), make([]string, 2048)
	for i := range names {
		cellNames[i], names[i] = "C"+strconv.Itoa(i), "M"+strconv.Itoa(i)
	}
	allocs := func(cells int) float64 {
		return testing.AllocsPerRun(5, func() {
			b := NewSizedBuilder(cells, cells-1, 0)
			for _, name := range cellNames[:cells] {
				b.AddCell(name)
			}
			for i := 0; i+1 < cells; i++ {
				b.DeclareMessage(names[i], CellID(i), CellID(i+1), 4)
			}
			for w := 0; w < 4; w++ {
				for i := 0; i+1 < cells; i++ {
					b.Write(CellID(i), MessageID(i)).Read(CellID(i+1), MessageID(i))
				}
			}
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1024), allocs(2048)
	t.Logf("%v allocations at 1024 cells, %v at 2048", short, long)
	if short > 64 || long > short+16 {
		t.Errorf("%v allocations at 1024 cells (budget 64), %v at 2048 (budget %v): the builder allocates per cell", short, long, short+16)
	}
}
