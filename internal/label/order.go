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
		res := crossoff.Verdict(p, crossoff.Options{})
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, res.Blocked))
	}
	return orderLabels(p, extraEqualities), nil
}

// orderLabels is assignByOrder for a program already known to cross
// off completely, on arrays of its own.
func orderLabels(p *model.Program, extraEqualities [][2]model.MessageID) Labeling {
	return new(orderScratch).labels(p, extraEqualities)
}

// orderScratch holds the order-based construction's two arrays, which a
// labeler keeps for its fallbacks.
type orderScratch struct{ tables, edges []int32 }

// labels is orderLabels on o's arrays. The constraint graph is laid out
// flat, in compressed-row form both ways, and Kosaraju's two
// depth-first passes run on explicit stacks, so a fallback needs two
// arrays and no recursion however many messages it labels, and
// allocates only the labels it returns.
func (o *orderScratch) labels(p *model.Program, extraEqualities [][2]model.MessageID) Labeling {
	n := p.NumMessages()
	// One int32 array cut into the message-sized tables, one into the
	// edge lists: u → v means label(u) ≤ label(v); u's successors are
	// succ[out[u]:out[u+1]] and v's predecessors pred[in[v]:in[v+1]].
	o.tables = resize(o.tables, 2*(n+1)+5*n)
	buf := o.tables
	take := func(k int) []int32 {
		t := buf[:k:k]
		buf = buf[k:]
		return t
	}
	out, in := take(n+1), take(n+1)
	next, post, stack, comp, byComp := take(n), take(n), take(n), take(n), take(n)
	constraints(p, extraEqualities, func(u, v model.MessageID) {
		out[u+1]++
		in[v+1]++
	})
	for m := 0; m < n; m++ {
		out[m+1] += out[m]
		in[m+1] += in[m]
	}
	o.edges = resize(o.edges, 2*int(out[n]))
	edges := o.edges
	succ, pred := edges[:out[n]], edges[out[n]:]
	copy(next, out)
	copy(comp, in) // fill cursors for pred, until the second pass
	constraints(p, extraEqualities, func(u, v model.MessageID) {
		succ[next[u]] = int32(v)
		next[u]++
		pred[comp[v]] = int32(u)
		comp[v]++
	})

	// First pass: post-order of a depth-first search along succ.
	// next[u] is u's next successor to try, -1 while u is unvisited.
	for m := range next {
		next[m] = -1
	}
	post = post[:0]
	for root := range int32(n) {
		if next[root] >= 0 {
			continue
		}
		next[root] = out[root]
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if next[u] == out[u+1] {
				stack = stack[:len(stack)-1]
				post = append(post, u)
				continue
			}
			v := succ[next[u]]
			next[u]++
			if next[v] < 0 {
				next[v] = out[v]
				stack = append(stack, v)
			}
		}
	}

	// Second pass: along pred, roots in reverse post-order. Components
	// are numbered in topological order of the condensation (sources
	// first), and since each is visited whole before the next, byComp
	// lists the messages grouped by component in that order.
	for m := range comp {
		comp[m] = -1
	}
	byComp = byComp[:0]
	components := int32(0)
	for i := n - 1; i >= 0; i-- {
		root := post[i]
		if comp[root] >= 0 {
			continue
		}
		comp[root] = components
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			byComp = append(byComp, u)
			for _, v := range pred[in[u]:in[u+1]] {
				if comp[v] < 0 {
					comp[v] = components
					stack = append(stack, v)
				}
			}
		}
		components++
	}

	// Condensation longest-path rank: rank(C) = 1 + max rank of its
	// predecessors. One sweep in component order sees every
	// predecessor's final rank before propagating it. next is free
	// again and holds the ranks.
	rank := next[:components]
	for c := range rank {
		rank[c] = 1
	}
	for _, u := range byComp {
		c := comp[u]
		for _, v := range succ[out[u]:out[u+1]] {
			if cv := comp[v]; cv != c && rank[c]+1 > rank[cv] {
				rank[cv] = rank[c] + 1
			}
		}
	}

	// A component of rank r > 1 has a predecessor of rank r−1, so the
	// ranks in use are 1…max without a gap: they are their own dense
	// ranks.
	lab := Labeling{
		ByMessage: make([]rational.R, n),
		Dense:     make([]int, n),
	}
	for m := 0; m < n; m++ {
		r := rank[comp[m]]
		lab.ByMessage[m] = rational.FromInt(int64(r))
		lab.Dense[m] = int(r)
	}
	return lab
}

// constraints calls visit for every ≤ constraint of the order-based
// construction: u then v, distinct, consecutive in a cell program, and
// both directions of every extra equality.
func constraints(p *model.Program, extraEqualities [][2]model.MessageID, visit func(u, v model.MessageID)) {
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i := 1; i < len(code); i++ {
			if u, v := code[i-1].Msg, code[i].Msg; u != v {
				visit(u, v)
			}
		}
	}
	for _, eq := range extraEqualities {
		if eq[0] != eq[1] {
			visit(eq[0], eq[1])
			visit(eq[1], eq[0])
		}
	}
}

// lookaheadEqualities runs the lookahead crossing-off procedure and
// collects the §8.2 rule-1d equality pairs: each skipped write's
// message must share the located pair's label.
func lookaheadEqualities(p *model.Program, budget func(model.MessageID) int) [][2]model.MessageID {
	var eqs [][2]model.MessageID
	crossoff.Classify(p, crossoff.Options{
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
