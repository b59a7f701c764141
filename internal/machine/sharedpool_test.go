package machine

import (
	"reflect"
	"testing"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// bidirectional builds opposite-direction traffic over one link, A:
// C1→C2 and B: C2→C1. Interleaved, both are in flight at once; in
// sequence, A is read to its end before B is written.
func bidirectional(t testing.TB, words int, interleaved bool) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, words)
	bb := b.DeclareMessage("B", c2, c1, words)
	if interleaved {
		for i := 0; i < words; i++ {
			b.Write(c1, a).Read(c1, bb)
			b.Read(c2, a).Write(c2, bb)
		}
	} else {
		b.WriteN(c1, a, words).ReadN(c1, bb, words)
		b.ReadN(c2, a, words).WriteN(c2, bb, words)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSharedPoolServesBothDirections: a link's one pool of queues
// serves traffic in either direction (§2.3). One queue cannot carry two
// messages in flight at once, so interleaved opposite traffic deadlocks
// on it and completes on two. In sequence, one queue carries A to its
// end and is then rebound, its direction reset, for B.
func TestSharedPoolServesBothDirections(t *testing.T) {
	a, b := model.MessageID(0), model.MessageID(1)
	for _, tc := range []struct {
		name        string
		interleaved bool
		queues      int
		completes   bool
		// binds, when set, is queue 0's bind/release sequence as
		// (message, bound) pairs.
		binds []BindEvent
	}{
		{name: "one queue, interleaved", interleaved: true, queues: 1},
		{name: "two queues, interleaved", interleaved: true, queues: 2, completes: true},
		{name: "one queue, direction reset", queues: 1, completes: true, binds: []BindEvent{
			{Msg: a, Bound: true}, {Msg: a}, {Msg: b, Bound: true}, {Msg: b},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := bidirectional(t, 4, tc.interleaved)
			opts := fcfs(tc.queues, 1)
			opts.RecordTimeline = true
			res, err := compileRun(p, topology.Linear(2), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != tc.completes || res.Deadlocked == tc.completes {
				t.Fatalf("%s, want completed=%v\n%s", res.Outcome(), tc.completes, DescribeBlocked(p, res.Blocked))
			}
			if tc.binds == nil {
				return
			}
			var got []BindEvent
			for _, ev := range res.Timeline {
				if ev.Link != 0 || ev.QueueIdx != 0 {
					t.Fatalf("event on link %d queue %d, want the link's one queue", ev.Link, ev.QueueIdx)
				}
				got = append(got, BindEvent{Msg: ev.Msg, Bound: ev.Bound})
			}
			if !reflect.DeepEqual(got, tc.binds) {
				t.Errorf("queue 0 binds %v, want %v", got, tc.binds)
			}
		})
	}
}

// TestDirectionalPoolsDoubleEffectiveQueues: interleaved opposite
// traffic holds a queue of the link's one pool for each direction, so
// it needs twice the queues that one direction alone would. The run
// completes exactly when the pool has two or more, and the one-queue
// deadlock leaves both cells stuck. (The name dates from a retired
// regime that gave each direction a pool of its own.)
func TestDirectionalPoolsDoubleEffectiveQueues(t *testing.T) {
	p := bidirectional(t, 4, true)
	for queues := 1; queues <= 3; queues++ {
		res, err := compileRun(p, topology.Linear(2), fcfs(queues, 1))
		if err != nil {
			t.Fatal(err)
		}
		if want := queues >= 2; res.Completed != want {
			t.Fatalf("%d queues: %s, want completed=%v\n%s", queues, res.Outcome(), want, DescribeBlocked(p, res.Blocked))
		}
		if !res.Completed && len(res.Blocked) != 2 {
			t.Fatalf("%d queues: %d stuck cells, want both\n%s", queues, len(res.Blocked), DescribeBlocked(p, res.Blocked))
		}
	}
}

// TestDirectionalPoolsEquivalentWhenEnoughQueues: once the shared pool
// has a queue for each direction, more queues change nothing. Two
// queues and eight give the same cycle count and the same words, and
// every message arrives whole.
func TestDirectionalPoolsEquivalentWhenEnoughQueues(t *testing.T) {
	p := bidirectional(t, 6, true)
	two, err := compileRun(p, topology.Linear(2), fcfs(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := compileRun(p, topology.Linear(2), fcfs(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !two.Completed || !eight.Completed {
		t.Fatalf("two queues %s, eight queues %s", two.Outcome(), eight.Outcome())
	}
	if two.Cycles != eight.Cycles || !reflect.DeepEqual(two.Received, eight.Received) {
		t.Fatalf("two queues: %d cycles, %v; eight queues: %d cycles, %v", two.Cycles, two.Received, eight.Cycles, eight.Received)
	}
	for id, words := range two.Received {
		if len(words) != p.Message(model.MessageID(id)).Words {
			t.Errorf("message %d: %d words received, want %d", id, len(words), p.Message(model.MessageID(id)).Words)
		}
	}
}
