package machine

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/model"
)

// TestCheckIRBounds: the int32 offset tables and the 31-bit message id
// of a packed op bound what Compile can lower, and crossing a bound is
// a typed ConfigError naming what overflowed — not a wrapped prefix
// sum. The totals are out of reach of a real program (2³¹ ops alone
// are 32 GB of model.Op), so the helper is tested directly.
func TestCheckIRBounds(t *testing.T) {
	const limit = math.MaxInt32
	cases := []struct {
		name                   string
		ops, hops, words, msgs int
		field, reason          string // empty field: accepted
	}{
		{name: "empty"},
		{name: "every total at the limit", ops: limit, hops: limit, words: limit, msgs: limit},
		{name: "ops", ops: limit + 1, field: "Program", reason: "2147483648 ops"},
		{name: "hops", hops: limit + 1, field: "Routes", reason: "2147483648 route hops"},
		{name: "words", words: limit + 1, field: "Program", reason: "2147483648 message words"},
		{name: "messages", msgs: limit + 1, field: "Program", reason: "2147483648 messages"},
		{name: "first overflow wins", ops: limit + 7, hops: limit + 1, field: "Program", reason: "2147483654 ops"},
		{name: "far beyond", words: math.MaxInt64, field: "Program", reason: "message words"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkIRBounds(tc.ops, tc.hops, tc.words, tc.msgs)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("err = %v, want none", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field || !strings.Contains(ce.Reason, tc.reason) {
				t.Fatalf("ConfigError{%q, %q}, want field %q and a reason naming %q", ce.Field, ce.Reason, tc.field, tc.reason)
			}
		})
	}
}

// TestPackedOpsRoundTrip: the compiled stream is Program.Code, packed —
// decoding every cell of 50 generated programs over linear, ring and
// mesh arrays gives the source ops exactly — and a deadlock report
// built from it still names the parked statement: on mutated programs
// that stall, each Blocked entry's Op and OpIdx are the op the cell's
// program holds at that index, and the Reason names that op's message.
func TestPackedOpsRoundTrip(t *testing.T) {
	topos := []gen.TopoKind{gen.TopoLinear, gen.TopoRing, gen.TopoMesh}
	stalled := 0
	for seed := int64(1); seed <= 50; seed++ {
		opts := gen.Options{Topology: topos[seed%3], Cells: 4 + int(seed%9), Messages: 8 + int(seed%23), Cyclic: seed%2 == 0}
		sc, err := gen.Generate(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := mustCompile(t, sc.Program, sc.Topology)
		for c := 0; c < sc.Program.NumCells(); c++ {
			var decoded []model.Op
			for _, po := range m.code(c) {
				decoded = append(decoded, po.op())
			}
			if want := sc.Program.Code(model.CellID(c)); !slices.Equal(decoded, want) {
				t.Fatalf("%s: cell %d decodes to %v, program has %v", sc.Name, c, decoded, want)
			}
		}

		opts.Mutations = 6
		mut, err := gen.Generate(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mustCompile(t, mut.Program, mut.Topology).Run(fcfs(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deadlocked {
			continue
		}
		stalled++
		for _, cb := range res.Blocked {
			code := mut.Program.Code(cb.Cell)
			if cb.OpIdx >= len(code) || code[cb.OpIdx] != cb.Op {
				t.Fatalf("%s: cell %d reported stuck at op %d = %v, its program there: %v", mut.Name, cb.Cell, cb.OpIdx, cb.Op, code)
			}
			if name := mut.Program.Message(cb.Op.Msg).Name; !strings.Contains(cb.Reason(mut.Program), name) {
				t.Fatalf("%s: cell %d stuck at %s, reason %q names another message", mut.Name, cb.Cell, mut.Program.OpString(cb.Op), cb.Reason(mut.Program))
			}
		}
	}
	if stalled < 5 {
		t.Fatalf("only %d of 50 mutated programs deadlocked; the report check needs more", stalled)
	}
}
