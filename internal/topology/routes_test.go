package topology_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// randomGraph is a connected graph on n cells: a random spanning tree
// plus extra edges, the edge list in random order and with repeats, so
// link ids do not follow cell ids.
func randomGraph(rng *rand.Rand, n, extra int) [][2]model.CellID {
	var edges [][2]model.CellID
	for c := 1; c < n; c++ {
		edges = append(edges, [2]model.CellID{model.CellID(rng.Intn(c)), model.CellID(c)})
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]model.CellID{model.CellID(a), model.CellID(b)})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// everyConstructor returns one topology of each family this package
// builds, all on 16 cells.
func everyConstructor(rng *rand.Rand) []topology.Topology {
	return []topology.Topology{
		topology.Linear(16),
		topology.Ring(16),
		topology.Mesh2D(4, 4),
		topology.Torus2D(4, 4),
		topology.Hypercube(4),
		topology.Star(16),
		topology.Graph(16, randomGraph(rng, 16, 12)),
	}
}

// scatter is a program of msgs one-word messages between random pairs
// of the first cells cells, the senders drawn from the first senders of
// them. Routing does not care whether it is deadlock-free.
func scatter(t testing.TB, rng *rand.Rand, cells, senders, msgs int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("C", cells)
	for i := 0; i < msgs; i++ {
		from := rng.Intn(senders)
		to := rng.Intn(cells - 1)
		if to >= from {
			to++
		}
		m := b.DeclareMessage("M"+strconv.Itoa(i), ids[from], ids[to], 1)
		b.Write(ids[from], m).Read(ids[to], m)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// foreign hides a topology's concrete type, as a Topology implemented
// outside this package would: Routes has to ask it route by route.
type foreign struct{ topology.Topology }

// perMessage is what Routes must equal: one Route call per message.
func perMessage(t *testing.T, p *model.Program, topo topology.Topology) [][]topology.Hop {
	t.Helper()
	want := make([][]topology.Hop, p.NumMessages())
	for _, m := range p.Messages() {
		r, err := topo.Route(m.Sender, m.Receiver)
		if err != nil {
			t.Fatalf("%s: route %d→%d: %v", topo.Name(), m.Sender, m.Receiver, err)
		}
		want[m.ID] = r
	}
	return want
}

// TestRoutesMatchPerMessageRoute: the one-array Routes is the
// per-message Route of every message, hop for hop, on each of the seven
// constructors, through a foreign Topology, and on the generated corpus.
func TestRoutesMatchPerMessageRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, p *model.Program, topo topology.Topology) {
		t.Helper()
		want := perMessage(t, p, topo)
		for _, tp := range []topology.Topology{topo, foreign{topo}} {
			got, err := topology.Routes(p, tp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Routes differs from per-message Route\n got %v\nwant %v", name, got, want)
			}
		}
	}
	for _, topo := range everyConstructor(rng) {
		check(topo.Name(), scatter(t, rng, 16, 16, 200), topo)
	}
	for seed := int64(0); seed < 200; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cyclic: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name, sc.Program, sc.Topology)
	}
}

// TestGraphRoutesMatchEarlyExitSearch holds Graph's per-sender search
// trees to the search they replaced: a breadth-first search from the
// sender that tries each cell's neighbours in link order and stops once
// it has seen the receiver.
func TestGraphRoutesMatchEarlyExitSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 50; round++ {
		n := 2 + rng.Intn(30)
		topo := topology.Graph(n, randomGraph(rng, n, rng.Intn(2*n)))
		order := make([][]model.CellID, n)
		for _, l := range topo.Links() {
			order[l.A] = append(order[l.A], l.B)
			order[l.B] = append(order[l.B], l.A)
		}
		routes, err := topology.Routes(scatter(t, rng, n, n, 60), topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range routes {
			from, to := route[0].From, route[len(route)-1].To
			prev := make([]model.CellID, n)
			seen := make([]bool, n)
			queue := []model.CellID{from}
			seen[from] = true
			for len(queue) > 0 && !seen[to] {
				c := queue[0]
				queue = queue[1:]
				for _, nb := range order[c] {
					if !seen[nb] {
						seen[nb], prev[nb] = true, c
						queue = append(queue, nb)
					}
				}
			}
			for i, c := len(route)-1, to; i >= 0; i, c = i-1, prev[c] {
				if route[i].To != c || route[i].From != prev[c] {
					t.Fatalf("%s: route %d→%d: hop %d is %d→%d, the search says %d→%d", topo.Name(), from, to, i, route[i].From, route[i].To, prev[c], c)
				}
				if l := topo.Links()[route[i].Link]; !(l.A == c && l.B == prev[c]) && !(l.B == c && l.A == prev[c]) {
					t.Fatalf("%s: hop %d→%d names link %d, which joins %d and %d", topo.Name(), prev[c], c, l.ID, l.A, l.B)
				}
			}
		}
	}
}

// TestRoutesAreClippedViews: routes share one array, so each must be
// clipped to its own segment — an append to one route reallocates
// instead of overwriting the first hop of the next.
func TestRoutesAreClippedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, topo := range everyConstructor(rng) {
		p := scatter(t, rng, 16, 16, 40)
		routes, err := topology.Routes(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		want := perMessage(t, p, topo)
		for i := range routes {
			if cap(routes[i]) != len(routes[i]) {
				t.Fatalf("%s: route %d has length %d and capacity %d", topo.Name(), i, len(routes[i]), cap(routes[i]))
			}
			_ = append(routes[i], topology.Hop{Link: -1, From: -1, To: -1})
		}
		if !reflect.DeepEqual(routes, want) {
			t.Errorf("%s: appending to routes changed their neighbours", topo.Name())
		}
	}
}

// TestAllocGateRoutes: the allocations of Routes belong to
// the call — the hop array, the views, the offsets, a path buffer and,
// on a Graph, one search tree per distinct sender — so twice the
// messages from the same senders must not cost more of them.
func TestAllocGateRoutes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(4))
	for _, topo := range everyConstructor(rng) {
		allocs := func(msgs int) float64 {
			p := scatter(t, rng, 16, 4, msgs)
			return testing.AllocsPerRun(5, func() {
				if _, err := topology.Routes(p, topo); err != nil {
					t.Fatal(err)
				}
			})
		}
		base, doubled := allocs(2000), allocs(4000)
		t.Logf("%s: %v allocations for 2000 messages, %v for 4000", topo.Name(), base, doubled)
		if base > 24 || doubled > base {
			t.Errorf("%s: %v allocations for 2000 messages (budget 24), %v for 4000: Routes allocates per message", topo.Name(), base, doubled)
		}
	}
}
