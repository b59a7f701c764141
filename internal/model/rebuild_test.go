package model

import (
	"reflect"
	"testing"
)

// threeMessages builds Host→C1 (A, 2 words), C1→C2 (B, 1 word) and
// C1→C2 (C, 2 words), with the host flagged.
func threeMessages(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	h := b.AddHost("Host")
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", h, c1, 2)
	m := b.DeclareMessage("B", c1, c2, 1)
	c := b.DeclareMessage("C", c1, c2, 2)
	b.WriteN(h, a, 2)
	b.ReadN(c1, a, 2).Write(c1, m).WriteN(c1, c, 2)
	b.Read(c2, m).ReadN(c2, c, 2)
	return b.MustBuild()
}

func TestRebuildPreservesHostFlag(t *testing.T) {
	p := threeMessages(t)
	q, err := Rebuild(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cell(0).Host {
		t.Fatal("host flag lost in rebuild")
	}
	if q.String() != p.String() || !reflect.DeepEqual(q.Messages(), p.Messages()) {
		t.Fatalf("identity rebuild changed the program:\n%s\nvs\n%s", q, p)
	}
}

// TestRebuildDropsAndRenumbers: a message declared 0 words long leaves
// with its ops, and the later messages move down one id.
func TestRebuildDropsAndRenumbers(t *testing.T) {
	p := threeMessages(t)
	q, err := Rebuild(p, func(m Message) int {
		if m.Name == "B" {
			return 0
		}
		return m.Words
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.String(), "Host: W(A) W(A)\nC1: R(A) R(A) W(C) W(C)\nC2: R(C) R(C)\n"; got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	if m, ok := q.MessageByName("C"); !ok || m.ID != 1 {
		t.Fatalf("C = %+v, %v; want id 1", m, ok)
	}
}

// TestRebuildRewritesCode: code replaces a cell's ops in the old ids,
// and the result is validated like any built program.
func TestRebuildRewritesCode(t *testing.T) {
	p := threeMessages(t)
	trimC := func(m Message) int {
		if m.Name == "C" {
			return m.Words - 1
		}
		return m.Words
	}
	drop := func(c CellID) []Op {
		code := p.Code(c)
		if c == 0 {
			return code
		}
		return code[:len(code)-1]
	}
	q, err := Rebuild(p, trimC, drop)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.String(), "Host: W(A) W(A)\nC1: R(A) R(A) W(B) W(C)\nC2: R(B) R(C)\n"; got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	if _, err := Rebuild(p, trimC, nil); err == nil {
		t.Fatal("a word count the code does not match was accepted")
	}
	if p.String() != "Host: W(A) W(A)\nC1: R(A) R(A) W(B) W(C) W(C)\nC2: R(B) R(C) R(C)\n" {
		t.Fatalf("Rebuild mutated its input:\n%s", p)
	}
}
