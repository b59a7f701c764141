package topology

import (
	"testing"
	"testing/quick"

	"systolic/internal/model"
)

func TestLinearLinks(t *testing.T) {
	lin := Linear(4)
	if lin.NumCells() != 4 {
		t.Fatalf("NumCells=%d", lin.NumCells())
	}
	links := lin.Links()
	if len(links) != 3 {
		t.Fatalf("links=%d, want 3", len(links))
	}
	for i, l := range links {
		if int(l.A) != i || int(l.B) != i+1 {
			t.Errorf("link %d joins %d-%d", i, l.A, l.B)
		}
	}
}

func TestLinearRouteForwardAndBack(t *testing.T) {
	lin := Linear(5)
	fwd, err := lin.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != 3 || fwd[0].From != 0 || fwd[2].To != 3 {
		t.Fatalf("forward route %v", fwd)
	}
	back, err := lin.Route(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].From != 4 || back[2].To != 1 {
		t.Fatalf("backward route %v", back)
	}
	// Same undirected links, opposite direction.
	if back[0].Link != fwd[2].Link && back[2].Link != fwd[0].Link {
		t.Log("link ids:", fwd, back) // informational; ids depend on construction order
	}
}

func TestRouteSelfFails(t *testing.T) {
	if _, err := Linear(3).Route(1, 1); err == nil {
		t.Fatal("route to self succeeded")
	}
}

func TestRouteOutOfRangeFails(t *testing.T) {
	if _, err := Linear(3).Route(0, 7); err == nil {
		t.Fatal("out-of-range route succeeded")
	}
	if _, err := Linear(3).Route(-1, 2); err == nil {
		t.Fatal("negative route succeeded")
	}
}

func TestRingShorterArc(t *testing.T) {
	r := Ring(6)
	if len(r.Links()) != 6 {
		t.Fatalf("ring(6) has %d links", len(r.Links()))
	}
	hops, err := r.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[0].To != 1 {
		t.Fatalf("cw route %v", hops)
	}
	hops, err = r.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].To != 5 {
		t.Fatalf("ccw route %v", hops)
	}
	// Tie (distance 3 both ways) goes clockwise.
	hops, err = r.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 || hops[0].To != 1 {
		t.Fatalf("tie route %v", hops)
	}
}

func TestMeshXYRouting(t *testing.T) {
	m := Mesh2D(3, 4)
	if m.NumCells() != 12 {
		t.Fatalf("cells=%d", m.NumCells())
	}
	// (0,0)=0 to (2,3)=11: X first (3 east hops), then Y (2 south).
	hops, err := m.Route(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 5 {
		t.Fatalf("route length %d, want 5", len(hops))
	}
	wantPath := []model.CellID{1, 2, 3, 7, 11}
	for i, h := range hops {
		if h.To != wantPath[i] {
			t.Fatalf("hop %d to %d, want %d (XY order violated)", i, h.To, wantPath[i])
		}
	}
}

func TestMeshLinkCount(t *testing.T) {
	m := Mesh2D(3, 4)
	// 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8 = 17.
	if got := len(m.Links()); got != 17 {
		t.Fatalf("mesh(3x4) links=%d, want 17", got)
	}
}

func TestGraphBFSRouting(t *testing.T) {
	// A square with a diagonal: 0-1, 1-2, 2-3, 3-0, 0-2.
	g := Graph(4, [][2]model.CellID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	hops, err := g.Route(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("route 1→3 length %d, want 2", len(hops))
	}
	// Direct edge wins.
	hops, err = g.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("route 0→2 length %d, want 1", len(hops))
	}
}

func TestGraphDisconnectedFails(t *testing.T) {
	g := Graph(4, [][2]model.CellID{{0, 1}, {2, 3}})
	if _, err := g.Route(0, 3); err == nil {
		t.Fatal("route across components succeeded")
	}
}

func TestGraphDuplicateEdgesCollapsed(t *testing.T) {
	g := Graph(3, [][2]model.CellID{{0, 1}, {1, 0}, {1, 2}})
	if len(g.Links()) != 2 {
		t.Fatalf("links=%d, want 2 (duplicate edge kept)", len(g.Links()))
	}
}

func buildProgram(t *testing.T) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	cs := b.AddCells("C", 4)
	a := b.DeclareMessage("A", cs[0], cs[3], 1) // 3 hops on linear
	bb := b.DeclareMessage("B", cs[1], cs[2], 1)
	b.Write(cs[0], a)
	b.Write(cs[1], bb)
	b.Read(cs[2], bb)
	b.Read(cs[3], a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoutesAndCompeting(t *testing.T) {
	p := buildProgram(t)
	routes, err := Routes(p, Linear(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(routes[0]) != 3 || len(routes[1]) != 1 {
		t.Fatalf("route lengths %d,%d", len(routes[0]), len(routes[1]))
	}
	comp := Competing(routes)
	shared := routes[1][0].Link // C2-C3 carries both A and B
	if len(comp[shared]) != 2 {
		t.Fatalf("shared link competing=%d, want 2", len(comp[shared]))
	}
}

func TestRoutesTooManyProgramCells(t *testing.T) {
	p := buildProgram(t)
	if _, err := Routes(p, Linear(3)); err == nil {
		t.Fatal("program with more cells than topology routed")
	}
}

func TestQuickLinearRouteLength(t *testing.T) {
	f := func(a, b uint8) bool {
		n := 12
		from := model.CellID(int(a) % n)
		to := model.CellID(int(b) % n)
		if from == to {
			return true
		}
		hops, err := Linear(n).Route(from, to)
		if err != nil {
			return false
		}
		want := int(from) - int(to)
		if want < 0 {
			want = -want
		}
		if len(hops) != want {
			return false
		}
		// Hops chain correctly.
		cur := from
		for _, h := range hops {
			if h.From != cur {
				return false
			}
			cur = h.To
		}
		return cur == to
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRingRouteAtMostHalf(t *testing.T) {
	f := func(a, b uint8) bool {
		n := 9
		from := model.CellID(int(a) % n)
		to := model.CellID(int(b) % n)
		if from == to {
			return true
		}
		hops, err := Ring(n).Route(from, to)
		if err != nil {
			return false
		}
		return len(hops) <= n/2+1 && hops[len(hops)-1].To == to
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeshRouteLengthIsManhattan(t *testing.T) {
	rows, cols := 4, 5
	m := Mesh2D(rows, cols)
	f := func(a, b uint8) bool {
		from := int(a) % (rows * cols)
		to := int(b) % (rows * cols)
		if from == to {
			return true
		}
		hops, err := m.Route(model.CellID(from), model.CellID(to))
		if err != nil {
			return false
		}
		fr, fc := from/cols, from%cols
		tr, tc := to/cols, to%cols
		manhattan := abs(fr-tr) + abs(fc-tc)
		return len(hops) == manhattan
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestNames(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		want string
	}{
		{Linear(3), "linear(3)"},
		{Ring(5), "ring(5)"},
		{Mesh2D(2, 3), "mesh(2x3)"},
	} {
		if tc.topo.Name() != tc.want {
			t.Errorf("Name=%q want %q", tc.topo.Name(), tc.want)
		}
	}
}
