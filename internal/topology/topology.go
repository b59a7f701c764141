// Package topology models interconnection structure: which cells are
// adjacent, the links ("intervals" in the paper's §2.3) between them,
// and how messages are routed from sender to receiver.
//
// The paper presents everything on 1-dimensional arrays but states the
// results apply to any dimensionality and interconnection topology.
// This package provides linear arrays, rings, 2-D meshes and tori with
// deterministic XY routing, and arbitrary graphs with BFS shortest-path
// routing.
package topology

import (
	"cmp"
	"fmt"
	"slices"

	"systolic/internal/model"
)

// LinkID identifies an undirected link between two adjacent cells.
// Both directions of traffic cross the same link and, in the paper's
// model, draw queues from the same fixed set ("the direction of the
// queue can be reset", §2.3).
type LinkID int

// Link is an undirected edge between adjacent cells A and B (A < B).
type Link struct {
	ID   LinkID
	A, B model.CellID
}

// Hop is one directed step of a route: a message's words traverse Link
// from From to To.
type Hop struct {
	Link LinkID
	From model.CellID
	To   model.CellID
}

// Topology exposes the structure the deadlock machinery needs: links
// and a deterministic route for every (sender, receiver) pair.
type Topology interface {
	// NumCells returns the number of cells the topology connects.
	NumCells() int
	// Links returns all links. The slice must not be modified.
	Links() []Link
	// Route returns the deterministic sequence of hops a message takes
	// from sender to receiver. It fails if no path exists or the cells
	// are out of range.
	Route(from, to model.CellID) ([]Hop, error)
	// Name returns a human-readable description.
	Name() string
}

// graph is the shared implementation: links, a per-cell adjacency table
// to look them up in, and a routing policy.
type graph struct {
	name  string
	n     int
	links []Link
	// Cell c's neighbours are adj[adjOff[c]:adjOff[c+1]], ascending.
	adj    []neighbour
	adjOff []int32
	// newPather returns the routing policy with its scratch. A graph is
	// shared by every goroutine that routes over it, so the scratch is
	// the caller's: Route makes a pather per call, Routes one per program.
	newPather func() pather
}

// neighbour is an adjacent cell and the link to it; 32-bit fields halve
// the table, and a topology outgrows memory long before it outgrows them.
type neighbour struct{ cell, link int32 }

// A pather appends to path the cells a route visits after from, ending
// with to; both are in range and differ. It allocates nothing beyond
// growing path.
type pather func(path []model.CellID, from, to model.CellID) ([]model.CellID, error)

// newGraph starts a topology of n cells with room for the given number
// of links.
func newGraph(name string, n, links int) *graph {
	return &graph{name: name, n: n, links: make([]Link, 0, max(links, 0))}
}

func (g *graph) NumCells() int { return g.n }
func (g *graph) Links() []Link { return g.links }
func (g *graph) Name() string  { return g.name }

// addLink adds the link joining a and b as the next link id. The
// regular constructors never name a link twice, each adding a link
// only from the endpoint they reach first; Graph dedupes its edge list
// itself.
func (g *graph) addLink(a, b model.CellID) {
	if a > b {
		a, b = b, a
	}
	g.links = append(g.links, Link{ID: LinkID(len(g.links)), A: a, B: b})
}

// seal ends construction: it builds the adjacency table from the links,
// count-then-fill into one array, and installs the routing policy.
func (g *graph) seal(newPather func() pather) Topology {
	// off[c+1] counts cell c's links, then holds the beginning of its
	// segment, and the fill advances it to the segment's end — which is
	// where cell c+1's begins.
	off := make([]int32, g.n+1)
	for _, l := range g.links {
		off[l.A+1]++
		off[l.B+1]++
	}
	for c, at := 0, int32(0); c < g.n; c++ {
		off[c+1], at = at, at+off[c+1]
	}
	g.adj = make([]neighbour, 2*len(g.links))
	for _, l := range g.links {
		g.adj[off[l.A+1]] = neighbour{int32(l.B), int32(l.ID)}
		off[l.A+1]++
		g.adj[off[l.B+1]] = neighbour{int32(l.A), int32(l.ID)}
		off[l.B+1]++
	}
	g.adjOff = off
	for c := 0; c < g.n; c++ {
		slices.SortFunc(g.adj[g.adjOff[c]:g.adjOff[c+1]], func(a, b neighbour) int { return cmp.Compare(a.cell, b.cell) })
	}
	g.newPather = newPather
	return g
}

// stateless is the newPather of a policy that keeps no scratch.
func stateless(p pather) func() pather { return func() pather { return p } }

// linkBetween returns the link joining a and b, if adjacent.
func (g *graph) linkBetween(a, b model.CellID) (LinkID, bool) {
	nbrs := g.adj[g.adjOff[a]:g.adjOff[a+1]]
	i, ok := slices.BinarySearchFunc(nbrs, int32(b), func(n neighbour, c int32) int { return cmp.Compare(n.cell, c) })
	if !ok {
		return 0, false
	}
	return LinkID(nbrs[i].link), true
}

func (g *graph) Route(from, to model.CellID) ([]Hop, error) {
	path, err := g.path(g.newPather(), nil, from, to)
	if err != nil {
		return nil, err
	}
	hops := make([]Hop, len(path)-1)
	if err := g.fillHops(hops, path); err != nil {
		return nil, err
	}
	return hops, nil
}

// path validates the endpoints and returns the cells of the route, from
// first, in path's storage.
func (g *graph) path(route pather, path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
	if err := g.check(from); err != nil {
		return nil, err
	}
	if err := g.check(to); err != nil {
		return nil, err
	}
	if from == to {
		return nil, fmt.Errorf("topology: route from cell %d to itself", from)
	}
	return route(append(path[:0], from), from, to)
}

func (g *graph) check(c model.CellID) error {
	if int(c) < 0 || int(c) >= g.n {
		return fmt.Errorf("topology: cell %d out of range [0,%d)", c, g.n)
	}
	return nil
}

// fillHops converts a cell path into its len(path)-1 hops, validating
// adjacency.
func (g *graph) fillHops(hops []Hop, path []model.CellID) error {
	for i := range hops {
		id, ok := g.linkBetween(path[i], path[i+1])
		if !ok {
			return fmt.Errorf("topology: cells %d and %d not adjacent", path[i], path[i+1])
		}
		hops[i] = Hop{Link: id, From: path[i], To: path[i+1]}
	}
	return nil
}

// routes is Routes over a graph: one pather, one path buffer and one
// hop array for the program. A first pass sizes the array exactly, the
// second fills it; a route is a view of its segment, clipped so that
// appending to it cannot reach the next.
func (g *graph) routes(p *model.Program) ([][]Hop, error) {
	route, msgs := g.newPather(), p.Messages()
	off := make([]int, len(msgs)+1)
	var path []model.CellID
	for i, m := range msgs {
		var err error
		if path, err = g.path(route, path, m.Sender, m.Receiver); err != nil {
			return nil, fmt.Errorf("topology: message %s: %w", m.Name, err)
		}
		off[i+1] = off[i] + len(path) - 1
	}
	flat := make([]Hop, off[len(msgs)])
	routes := make([][]Hop, len(msgs))
	for i, m := range msgs {
		path, _ = g.path(route, path, m.Sender, m.Receiver)
		routes[i] = flat[off[i]:off[i+1]:off[i+1]]
		if err := g.fillHops(routes[i], path); err != nil {
			return nil, fmt.Errorf("topology: message %s: %w", m.Name, err)
		}
	}
	return routes, nil
}

// Linear returns a 1-D array of n cells 0—1—…—n-1. Minimum-length
// routes are the only routes, so the intervals a message crosses are
// completely determined by its endpoints (§2.3).
func Linear(n int) Topology {
	g := newGraph(fmt.Sprintf("linear(%d)", n), n, n-1)
	for i := 0; i+1 < n; i++ {
		g.addLink(model.CellID(i), model.CellID(i+1))
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		step := model.CellID(1)
		if to < from {
			step = -1
		}
		for c := from; c != to; {
			c += step
			path = append(path, c)
		}
		return path, nil
	}))
}

// Ring returns a ring of n cells; routes take the shorter arc,
// breaking ties clockwise (increasing cell id).
func Ring(n int) Topology {
	// Cell i links to its successor, except that in a ring of two the
	// successor's link back is the same one, and in a ring of one the
	// successor is the cell itself: no message can cross that link (its
	// endpoints differ), so, as in Torus2D(1, 1), there is none.
	links := n
	switch n {
	case 1:
		links = 0
	case 2:
		links = 1
	}
	g := newGraph(fmt.Sprintf("ring(%d)", n), n, links)
	for i := 0; i < links; i++ {
		g.addLink(model.CellID(i), model.CellID((i+1)%n))
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		cw := (int(to) - int(from) + n) % n
		ccw := n - cw
		step := 1
		if ccw < cw {
			step = -1
		}
		for c := int(from); model.CellID(c) != to; {
			c = (c + step + n) % n
			path = append(path, model.CellID(c))
		}
		return path, nil
	}))
}

// Mesh2D returns a rows×cols mesh with deterministic XY (row-first)
// dimension-ordered routing. Cell (r,c) has id r*cols+c.
func Mesh2D(rows, cols int) Topology {
	g := newGraph(fmt.Sprintf("mesh(%dx%d)", rows, cols), rows*cols, rows*(cols-1)+(rows-1)*cols)
	id := func(r, c int) model.CellID { return model.CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.addLink(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.addLink(id(r, c), id(r+1, c))
			}
		}
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		r, c := int(from)/cols, int(from)%cols
		tr, tc := int(to)/cols, int(to)%cols
		for c != tc { // X first
			if c < tc {
				c++
			} else {
				c--
			}
			path = append(path, id(r, c))
		}
		for r != tr { // then Y
			if r < tr {
				r++
			} else {
				r--
			}
			path = append(path, id(r, c))
		}
		return path, nil
	}))
}

// Graph returns an arbitrary topology from an explicit edge list, with
// BFS shortest-path routing (a cell's neighbours are tried in the order
// the edge list first names them, so routes are deterministic). A
// pather keeps the tree of every sender it has routed from: a program's
// routes cost one search per distinct sender.
func Graph(n int, edges [][2]model.CellID) Topology {
	g := newGraph(fmt.Sprintf("graph(%d cells, %d edges)", n, len(edges)), n, len(edges))
	// An edge list may name a link twice, in either direction; the
	// first naming gives it its id.
	linkAt := make(map[[2]model.CellID]struct{}, len(edges))
	for _, e := range edges {
		key := [2]model.CellID{min(e[0], e[1]), max(e[0], e[1])}
		if _, dup := linkAt[key]; !dup {
			linkAt[key] = struct{}{}
			g.addLink(key[0], key[1])
		}
	}
	order := make([][]model.CellID, n) // neighbours in link order, the BFS visiting order
	for _, l := range g.links {
		order[l.A] = append(order[l.A], l.B)
		order[l.B] = append(order[l.B], l.A)
	}
	return g.seal(func() pather {
		// trees[s][c] is the cell before c on the route from s, -1 where
		// the search from s did not reach.
		trees := make(map[model.CellID][]model.CellID)
		var queue []model.CellID
		return func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
			prev, ok := trees[from]
			if !ok {
				prev = make([]model.CellID, n)
				for i := range prev {
					prev[i] = -1
				}
				prev[from] = from
				queue = append(queue[:0], from)
				for head := 0; head < len(queue); head++ {
					for _, nb := range order[queue[head]] {
						if prev[nb] < 0 {
							prev[nb] = queue[head]
							queue = append(queue, nb)
						}
					}
				}
				trees[from] = prev
			}
			if prev[to] < 0 {
				return nil, fmt.Errorf("topology: no path from cell %d to cell %d", from, to)
			}
			start := len(path)
			for c := to; c != from; c = prev[c] {
				path = append(path, c)
			}
			slices.Reverse(path[start:])
			return path, nil
		}
	})
}

// Routes computes the route of every message of p over t. The result
// is indexed by MessageID. Over this package's topologies all routes
// share one backing array (see graph.routes); any other Topology is
// asked for one Route per message.
func Routes(p *model.Program, t Topology) ([][]Hop, error) {
	if t == nil {
		return nil, fmt.Errorf("topology: nil topology")
	}
	if p.NumCells() > t.NumCells() {
		return nil, fmt.Errorf("topology: program has %d cells but %s has only %d", p.NumCells(), t.Name(), t.NumCells())
	}
	if g, ok := t.(*graph); ok {
		return g.routes(p)
	}
	routes := make([][]Hop, p.NumMessages())
	for _, m := range p.Messages() {
		r, err := t.Route(m.Sender, m.Receiver)
		if err != nil {
			return nil, fmt.Errorf("topology: message %s: %w", m.Name, err)
		}
		routes[m.ID] = r
	}
	return routes, nil
}

// Competing groups messages by the links they cross: the result maps
// each link to the ids of all messages whose route includes it.
// Messages crossing the same interval are "competing" (§2.3) and may
// have to share that link's queues.
func Competing(routes [][]Hop) map[LinkID][]model.MessageID {
	out := make(map[LinkID][]model.MessageID)
	for id, route := range routes {
		for _, h := range route {
			out[h.Link] = append(out[h.Link], model.MessageID(id))
		}
	}
	return out
}
