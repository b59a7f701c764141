package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"systolic/internal/model"
)

func TestTorusWraparound(t *testing.T) {
	tor := Torus2D(4, 4)
	// 0 → 3 takes the wraparound (1 hop), not 3 hops across.
	hops, err := tor.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("wrap route length %d, want 1", len(hops))
	}
	// (0,0) → (2,2): 2+2 = 4 hops (no shorter wrap at distance n/2;
	// tie goes forward).
	hops, err = tor.Route(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 4 {
		t.Fatalf("route length %d, want 4", len(hops))
	}
}

func TestTorusLinkCount(t *testing.T) {
	// 4x4 torus: 2 links per cell dimension pair = 2*16 = 32.
	if got := len(Torus2D(4, 4).Links()); got != 32 {
		t.Fatalf("links=%d, want 32", got)
	}
	// Degenerate 1x4 torus: a ring of 4.
	if got := len(Torus2D(1, 4).Links()); got != 4 {
		t.Fatalf("1x4 torus links=%d, want 4", got)
	}
}

func TestQuickTorusRouteIsShortest(t *testing.T) {
	rows, cols := 5, 6
	tor := Torus2D(rows, cols)
	dist := func(a, b, size int) int {
		d := (b - a + size) % size
		if size-d < d {
			return size - d
		}
		return d
	}
	f := func(a, b uint8) bool {
		from := int(a) % (rows * cols)
		to := int(b) % (rows * cols)
		if from == to {
			return true
		}
		hops, err := tor.Route(model.CellID(from), model.CellID(to))
		if err != nil {
			return false
		}
		want := dist(from%cols, to%cols, cols) + dist(from/cols, to/cols, rows)
		return len(hops) == want && hops[len(hops)-1].To == model.CellID(to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHypercubeECubeRouting(t *testing.T) {
	h := Hypercube(3)
	if h.NumCells() != 8 {
		t.Fatalf("cells=%d", h.NumCells())
	}
	// 8 cells × 3 links / 2 = 12 links.
	if got := len(h.Links()); got != 12 {
		t.Fatalf("links=%d, want 12", got)
	}
	// 000 → 111: 3 hops flipping bits low to high: 001, 011, 111.
	hops, err := h.Route(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []model.CellID{1, 3, 7}
	if len(hops) != 3 {
		t.Fatalf("route %v", hops)
	}
	for i, h := range hops {
		if h.To != wantPath[i] {
			t.Fatalf("hop %d to %d, want %d", i, h.To, wantPath[i])
		}
	}
}

func TestQuickHypercubeRouteLengthIsHamming(t *testing.T) {
	h := Hypercube(4)
	f := func(a, b uint8) bool {
		from := int(a) % 16
		to := int(b) % 16
		if from == to {
			return true
		}
		hops, err := h.Route(model.CellID(from), model.CellID(to))
		if err != nil {
			return false
		}
		ham := 0
		for d := from ^ to; d != 0; d >>= 1 {
			ham += d & 1
		}
		return len(hops) == ham
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStarRouting(t *testing.T) {
	s := Star(5)
	if got := len(s.Links()); got != 4 {
		t.Fatalf("links=%d, want 4", got)
	}
	hops, err := s.Route(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[0].To != 0 || hops[1].To != 3 {
		t.Fatalf("leaf-leaf route %v", hops)
	}
	hops, err = s.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("hub route %v", hops)
	}
}

// dedupedLinks is link construction as it stood when every constructor
// deduped through a map: edges are named in the constructor's loop
// order, and only an edge's first naming becomes a link.
func dedupedLinks(edges func(add func(a, b int))) []Link {
	var links []Link
	seen := map[[2]model.CellID]bool{}
	edges(func(a, b int) {
		key := [2]model.CellID{model.CellID(min(a, b)), model.CellID(max(a, b))}
		if !seen[key] {
			seen[key] = true
			links = append(links, Link{ID: LinkID(len(links)), A: key[0], B: key[1]})
		}
	})
	return links
}

// TestConstructorLinksMatchDeduped: the regular constructors add each
// link once without a dedupe map, so their links — ids, endpoints and
// order — must equal the map-deduped construction's, at every size
// from 1 to 6, for rings and tori with a side of 1 or 2 included, and
// for hypercubes of dimension 0 to 4.
func TestConstructorLinksMatchDeduped(t *testing.T) {
	type tc struct {
		topo  Topology
		edges func(add func(a, b int))
	}
	var cases []tc
	for n := 1; n <= 6; n++ {
		cases = append(cases,
			tc{Linear(n), func(add func(a, b int)) {
				for i := 0; i+1 < n; i++ {
					add(i, i+1)
				}
			}},
			tc{Ring(n), func(add func(a, b int)) {
				for i := 0; i < n; i++ {
					add(i, (i+1)%n)
				}
			}},
			tc{Star(n), func(add func(a, b int)) {
				for c := 1; c < n; c++ {
					add(0, c)
				}
			}})
		for cols := 1; cols <= 6; cols++ {
			rows := n
			cases = append(cases,
				tc{Mesh2D(rows, cols), func(add func(a, b int)) {
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							if c+1 < cols {
								add(r*cols+c, r*cols+c+1)
							}
							if r+1 < rows {
								add(r*cols+c, (r+1)*cols+c)
							}
						}
					}
				}},
				tc{Torus2D(rows, cols), func(add func(a, b int)) {
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							if cols > 1 {
								add(r*cols+c, r*cols+(c+1)%cols)
							}
							if rows > 1 {
								add(r*cols+c, ((r+1)%rows)*cols+c)
							}
						}
					}
				}})
		}
	}
	for dim := 0; dim <= 4; dim++ {
		cases = append(cases, tc{Hypercube(dim), func(add func(a, b int)) {
			for c := 0; c < 1<<dim; c++ {
				for d := 0; d < dim; d++ {
					add(c, c^(1<<d))
				}
			}
		}})
	}
	for _, c := range cases {
		got, want := c.topo.Links(), dedupedLinks(c.edges)
		if !slices.Equal(got, want) {
			t.Errorf("%s: links %v, want %v", c.topo.Name(), got, want)
		}
	}
}
