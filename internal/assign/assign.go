// Package assign implements queue-assignment policies (§5 step 2, §7).
//
// During execution every message must be bound to one queue on every
// link it crosses. The binding discipline decides whether queue-induced
// deadlock can occur:
//
//   - Static (§7.1): every competing message gets its own queue before
//     execution; trivially compatible with any consistent labeling.
//   - Dynamic compatible (§7.2): queues are granted to competing
//     messages strictly in label order (*ordered assignment*), and an
//     equal-label group is granted distinct queues all at once
//     (*simultaneous assignment*). Grants may happen before a message's
//     header arrives — the paper's reservation remark.
//   - Naive baselines (the discipline the paper's Figs 7–9 warn
//     about): grant free queues to whoever asked, ordered FCFS, LIFO,
//     seeded-random, or adversarially by descending label.
package assign

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// Context carries the compile-time information policies may use.
// The compiled-machine runtime (internal/machine) shares one Context's
// slices across unlimited runs, so policies must treat every field as
// read-only.
type Context struct {
	// CompetingByPool is the one form of the competing sets, and
	// required: entry p lists the messages whose routes cross pool p,
	// in ascending message id, a message once per hop it has there.
	// A pool is a whole link, so pool p is link p and the ids are
	// dense, [0, len(CompetingByPool)); its queues serve both
	// directions, a queue's direction set when bound (§2.3). A pool no
	// route crosses has a nil entry.
	CompetingByPool [][]model.MessageID
	// LabelOrder, when non-nil, is each pool's competing set
	// pre-sorted by (label, message id) — the grant order of the
	// compatible policy, precompiled once so per-run Setup stops
	// re-sorting. Shared and read-only.
	LabelOrder [][]model.MessageID
	// Labels are dense 1-based labels per message; nil when the
	// driving pipeline skipped labeling (naive baselines tolerate
	// that, Compatible does not).
	Labels []int
	// QueuesPerLink is the fixed number of queues on every link.
	QueuesPerLink int
}

// Policy decides which competing messages are bound to free queues.
//
// The scheduler invokes Grant for a pool only on cycles where the
// pool's observable state — the free-queue count or the pending list —
// has changed since the previous invocation (plus once at cycle 0).
// A Grant call whose inputs match its previous call is guaranteed to
// be elided, so implementations must be pure functions of (free,
// pending, own grant history): no time-based behavior, and no side
// effects (RNG draws included) on calls that grant nothing because
// free == 0 or pending is empty.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Setup validates the context and precomputes per-link state. It
	// must be called exactly once per run before any Grant, and must
	// not mutate or retain-for-writing anything reachable from ctx.
	// Callers that reuse one policy instance across runs (the batch
	// runner replays a grid column through retained instances) call
	// Setup again at the start of each run; implementations must reset
	// every piece of per-run state there, so that a reused instance is
	// indistinguishable from a fresh one. Retaining scratch capacity
	// across runs is encouraged.
	Setup(ctx *Context) error
	// Grant returns the messages to bind to free queues on link now.
	// free is the number of unbound queues; pending lists the messages
	// with outstanding requests — requested on this link and not yet
	// granted there — in arrival order. A message a reserving policy
	// granted ahead of its request never appears: once its header
	// arrives there is nothing left to ask for, so pending holds at
	// most one entry per message still waiting and never a message
	// already bound. No built-in policy can tell this list from one that
	// kept such entries: Compatible and Static ignore pending, and Naive
	// never grants ahead of a request. Grant must return at most free
	// messages, each either pending or (for reserving policies)
	// competing on the link and never granted before.
	Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID
}

// Compatible returns the paper's dynamic compatible policy (§7.2):
// per link, messages sorted by label; grants advance group by group in
// label order, a group only when enough queues are simultaneously
// free. Setup fails without labels. When an equal-label group is
// larger than a link's queue pool (assumption (ii) of Theorem 1
// violated), the policy simply never grants that group and the run
// stalls into a detected deadlock — use verify.CheckPreconditions (or
// core.Execute without Force) to refuse such configurations up front.
func Compatible() Policy { return &compatible{} }

type compatible struct {
	order [][]model.MessageID // label-sorted competing, per pool; shared read-only
	next  []int               // first ungranted index, per pool
	label []int
	// scratch backs Grant's return value; the runner consumes each
	// grant list before the next Grant call, so one buffer serves the
	// whole run without allocating per cycle.
	scratch []model.MessageID
}

func (c *compatible) Name() string { return "compatible" }

func (c *compatible) Setup(ctx *Context) error {
	if ctx.Labels == nil {
		return fmt.Errorf("assign: compatible policy requires labels")
	}
	c.label = ctx.Labels
	if ctx.LabelOrder != nil {
		// Precompiled by the machine layer: identical to the sort
		// below, shared across runs, never mutated.
		c.order = ctx.LabelOrder
	} else {
		// The reference engine passes no order, so its runs check the
		// precompiled one against this sort.
		c.order = make([][]model.MessageID, len(ctx.CompetingByPool))
		for pool, msgs := range ctx.CompetingByPool {
			if len(msgs) == 0 {
				continue
			}
			sorted := slices.Clone(msgs)
			slices.SortFunc(sorted, func(a, b model.MessageID) int {
				if c := cmp.Compare(ctx.Labels[a], ctx.Labels[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			c.order[pool] = sorted
		}
	}
	c.next = resetInts(c.next, len(c.order))
	return nil
}

// resetInts returns a zeroed int slice of length n, reusing s's
// backing array when it is large enough — the re-Setup path of a
// reused policy instance.
func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetBools is resetInts for []bool.
func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (c *compatible) Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID {
	if int(link) >= len(c.order) {
		return nil
	}
	order := c.order[link]
	i := c.next[link]
	grants := c.scratch[:0]
	for i < len(order) {
		// Identify the equal-label group starting at i.
		j := i
		for j < len(order) && c.label[order[j]] == c.label[order[i]] {
			j++
		}
		if j-i > free {
			break // the whole group must be granted simultaneously
		}
		grants = append(grants, order[i:j]...)
		free -= j - i
		i = j
	}
	c.next[link] = i
	c.scratch = grants
	if len(grants) == 0 {
		return nil
	}
	return grants
}

// Static returns the §7.1 static policy: every competing message gets
// its own queue at cycle 0 and keeps it for the whole run. Setup fails
// if any link has more competing messages than queues.
func Static() Policy { return &static{} }

type static struct {
	competing [][]model.MessageID // per pool, ascending; shared read-only
	done      []bool
}

func (s *static) Name() string { return "static" }

func (s *static) Setup(ctx *Context) error {
	// Validate in ascending pool order so the reported link is
	// deterministic.
	for link, msgs := range ctx.CompetingByPool {
		if len(msgs) > ctx.QueuesPerLink {
			return fmt.Errorf("assign: static policy: link %d has %d competing messages but %d queues",
				link, len(msgs), ctx.QueuesPerLink)
		}
	}
	s.competing = ctx.CompetingByPool
	s.done = resetBools(s.done, len(s.competing))
	return nil
}

// Grant hands a pool its whole competing set once, already in the
// ascending order the grant list takes.
func (s *static) Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID {
	if int(link) >= len(s.done) || s.done[link] {
		return nil
	}
	s.done[link] = true
	return s.competing[link]
}

// Arbiter selects the order in which a naive policy serves pending
// requests.
type Arbiter int

const (
	// FCFS serves requests in arrival order.
	FCFS Arbiter = iota
	// LIFO serves the most recent request first.
	LIFO
	// Random serves pending requests in seeded-random order.
	Random
	// LabelDescending serves the pending request with the largest
	// label first — the adversary that reliably exhibits the
	// queue-induced deadlocks of Figs 7–9. Requires labels.
	LabelDescending
)

// String names the arbiter.
func (a Arbiter) String() string {
	switch a {
	case FCFS:
		return "fcfs"
	case LIFO:
		return "lifo"
	case Random:
		return "random"
	case LabelDescending:
		return "label-desc"
	}
	return fmt.Sprintf("arbiter(%d)", int(a))
}

// Naive returns a label-oblivious policy that binds free queues to
// pending requesters in the arbiter's order. It never reserves: a
// message is only granted after it asks. seed matters only for Random.
func Naive(arb Arbiter, seed int64) Policy {
	return &naive{arb: arb, seed: seed}
}

type naive struct {
	arb     Arbiter
	seed    int64
	rng     *rand.Rand
	labels  []int
	scratch []model.MessageID // backs Grant's return; see compatible.scratch
}

func (n *naive) Name() string { return "naive-" + n.arb.String() }

func (n *naive) Setup(ctx *Context) error {
	if n.arb == Random {
		// Only the random arbiter draws; the others skip the RNG
		// allocation entirely. A re-Setup re-seeds the retained RNG,
		// so a reused instance draws the same sequence a fresh one
		// would.
		if n.rng == nil {
			n.rng = rand.New(rand.NewSource(n.seed))
		} else {
			n.rng.Seed(n.seed)
		}
	}
	n.labels = ctx.Labels
	if n.arb == LabelDescending && n.labels == nil {
		return fmt.Errorf("assign: %s arbiter requires labels", n.arb)
	}
	return nil
}

func (n *naive) Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID {
	if free <= 0 || len(pending) == 0 {
		return nil
	}
	order := append(n.scratch[:0], pending...)
	n.scratch = order
	switch n.arb {
	case FCFS:
		// arrival order as given
	case LIFO:
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	case Random:
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	case LabelDescending:
		labels := n.labels
		slices.SortStableFunc(order, func(a, b model.MessageID) int { return cmp.Compare(labels[b], labels[a]) })
	}
	if len(order) > free {
		order = order[:free]
	}
	return order
}
