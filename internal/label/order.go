package label

import (
	"fmt"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/rational"
)

// assignByOrder computes a consistent labeling directly from the
// definition of consistency (§5): every cell program must touch
// messages in nondecreasing label order. Each pair of consecutive
// distinct messages in a cell program contributes a ≤ constraint; the
// related-messages rule (§6 step 1c) is subsumed exactly — an
// interleaving R(B)…R(A)…R(B) induces the cycle B ≤ … ≤ A ≤ … ≤ B,
// forcing equal labels. Strongly connected components of the
// constraint graph are merged, and labels are the 1-based longest-path
// ranks of the condensation, which distinguishes messages as much as
// the constraints allow.
//
// Unlike the crossing-off-driven §6 greedy scheme (Assign), this
// construction cannot fail on a deadlock-free program: ≤ constraint
// systems are always satisfiable (the trivial all-equal labeling
// satisfies any of them). Assign falls back to it when the greedy
// scheme's pick order paints itself into a corner — a possibility the
// paper leaves open when it notes that choosing an "optimal"
// executable pair "is an issue".
//
// extraEqualities injects additional same-label requirements, e.g. the
// §8.2 rule that lookahead-skipped messages share the located
// message's label; pass nil for none.
func assignByOrder(p *model.Program, extraEqualities [][2]model.MessageID) (Labeling, error) {
	if !crossoff.Classify(p, crossoff.Options{Lookahead: true}) {
		// Even with unbounded buffering the program cannot run; labels
		// are meaningless. (Strictly-deadlocked programs that lookahead
		// admits are labelable — callers gate on their own variant.)
		res := crossoff.Run(p, crossoff.Options{})
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, res.Blocked))
	}
	return orderLabels(p, extraEqualities), nil
}

// orderLabels is assignByOrder for a program already known to cross
// off completely.
func orderLabels(p *model.Program, extraEqualities [][2]model.MessageID) Labeling {
	n := p.NumMessages()
	adj := make([][]int, n) // u → v means label(u) ≤ label(v)
	addEdge := func(u, v model.MessageID) {
		if u != v {
			adj[u] = append(adj[u], int(v))
		}
	}
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i := 1; i < len(code); i++ {
			addEdge(code[i-1].Msg, code[i].Msg)
		}
	}
	for _, eq := range extraEqualities {
		addEdge(eq[0], eq[1])
		addEdge(eq[1], eq[0])
	}

	comp := sccKosaraju(adj)

	// Condensation longest-path rank: rank(C) = 1 + max rank of
	// predecessors. Process components in reverse topological order of
	// the original graph (Kosaraju numbers components in topological
	// order of the condensation already).
	nc := 0
	for _, c := range comp {
		if c+1 > nc {
			nc = c + 1
		}
	}
	rank := make([]int, nc)
	for i := range rank {
		rank[i] = 1
	}
	// Kosaraju numbers components in topological order of the
	// condensation (sources first), so a single ascending sweep sees
	// every predecessor's final rank before propagating it.
	order := make([][]int, nc) // members per component
	for m, c := range comp {
		order[c] = append(order[c], m)
	}
	for c := 0; c < nc; c++ {
		for _, u := range order[c] {
			for _, v := range adj[u] {
				cv := comp[v]
				if cv != c && rank[c]+1 > rank[cv] {
					rank[cv] = rank[c] + 1
				}
			}
		}
	}

	lab := Labeling{
		ByMessage: make([]rational.R, n),
		Dense:     make([]int, n),
	}
	for m := 0; m < n; m++ {
		lab.ByMessage[m] = rational.FromInt(int64(rank[comp[m]]))
	}
	lab.Dense = densify(lab.ByMessage)
	return lab
}

// sccKosaraju returns the component id of each node, with component
// ids in topological order of the condensation (sources first).
func sccKosaraju(adj [][]int) []int {
	n := len(adj)
	visited := make([]bool, n)
	post := make([]int, 0, n)
	var dfs1 func(int)
	dfs1 = func(u int) {
		visited[u] = true
		for _, v := range adj[u] {
			if !visited[v] {
				dfs1(v)
			}
		}
		post = append(post, u)
	}
	for u := 0; u < n; u++ {
		if !visited[u] {
			dfs1(u)
		}
	}
	radj := make([][]int, n)
	for u, vs := range adj {
		for _, v := range vs {
			radj[v] = append(radj[v], u)
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var dfs2 func(int, int)
	dfs2 = func(u, c int) {
		comp[u] = c
		for _, v := range radj[u] {
			if comp[v] == -1 {
				dfs2(v, c)
			}
		}
	}
	c := 0
	for i := len(post) - 1; i >= 0; i-- {
		if comp[post[i]] == -1 {
			dfs2(post[i], c)
			c++
		}
	}
	return comp
}

// lookaheadEqualities runs the lookahead crossing-off procedure and
// collects the §8.2 rule-1d equality pairs: each skipped write's
// message must share the located pair's label.
func lookaheadEqualities(p *model.Program, budget func(model.MessageID) int) [][2]model.MessageID {
	var eqs [][2]model.MessageID
	crossoff.Run(p, crossoff.Options{
		Lookahead: true,
		Budget:    budget,
		Observer: func(pr crossoff.Pair) {
			for _, sk := range pr.Skipped {
				if sk.Msg != pr.Msg {
					eqs = append(eqs, [2]model.MessageID{pr.Msg, sk.Msg})
				}
			}
		},
	})
	return eqs
}
