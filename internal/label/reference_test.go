package label

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// The §6 scheme exactly as it stood before the class-indexed labeler:
// a map of remaining ops per cell, a map-ranging pendingMin, a scan of
// every message per labeled pair for rule 1c, and a private crossing-off
// run per question asked. It is quadratic and is kept only as the
// oracle TestAssignMatchesReference holds Assign to.

func referenceRelated(p *model.Program) *unionFind {
	uf := newUnionFind(p.NumMessages())
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		// Within one cell all ops on a given message share a kind
		// (the cell is its sender or its receiver), so tracking the
		// previous op index per message suffices.
		prev := make(map[model.MessageID]int)
		for i, op := range code {
			if j, ok := prev[op.Msg]; ok {
				for k := j + 1; k < i; k++ {
					uf.Union(int(op.Msg), int(code[k].Msg))
				}
			}
			prev[op.Msg] = i
		}
	}
	return uf
}

func referenceAssign(p *model.Program, opts Options) (Labeling, error) {
	lab, err := referenceAssignGreedy(p, opts)
	if err == nil && Check(p, lab.ByMessage) == nil {
		return lab, nil
	}
	if !crossoff.Classify(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget, Picker: opts.Picker}) {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, crossoff.Run(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: opts.Budget}).Blocked))
	}
	var eqs [][2]model.MessageID
	if opts.Lookahead {
		eqs = lookaheadEqualities(p, opts.Budget) // §8.2 rule 1d
	}
	fallback, err2 := assignByOrder(p, eqs)
	if err2 != nil {
		return Labeling{}, err2
	}
	reason := "greedy §6 scheme produced an inconsistent labeling"
	if err != nil {
		reason = err.Error()
	}
	fallback.Warnings = append(fallback.Warnings,
		fmt.Sprintf("label: fell back to order-based labeling (%s)", reason))
	return fallback, nil
}

// referenceAssignGreedy is the literal §6 algorithm: label during a
// crossing-off pass, steps 1a–1d.
func referenceAssignGreedy(p *model.Program, opts Options) (Labeling, error) {
	uf := referenceRelated(p)

	labels := make([]rational.R, p.NumMessages())
	labeled := make([]bool, p.NumMessages())
	lastTouched := make([]rational.R, p.NumCells()) // zero = "nothing yet" (labels are ≥ 1)
	maxInUse := rational.FromInt(0)
	var warnings []string
	var schemeErr error

	// Remaining-op bookkeeping for the "will read from or write to"
	// scans of steps 1a/1b: per cell, the multiset of message ids in
	// its uncrossed suffix. We maintain counts and decrement as pairs
	// cross.
	remaining := make([]map[model.MessageID]int, p.NumCells())
	for c := 0; c < p.NumCells(); c++ {
		remaining[c] = make(map[model.MessageID]int)
		for _, op := range p.Code(model.CellID(c)) {
			remaining[c][op.Msg]++
		}
	}

	// pendingMin returns the smallest label among already-labeled
	// messages still appearing in cell c's remaining ops, excluding
	// message self.
	pendingMin := func(c model.CellID, self model.MessageID) (rational.R, bool) {
		var min rational.R
		found := false
		for msg, n := range remaining[c] {
			if n <= 0 || msg == self || !labeled[msg] {
				continue
			}
			if !found || labels[msg].Less(min) {
				min = labels[msg]
				found = true
			}
		}
		return min, found
	}

	setLabel := func(msg model.MessageID, lab rational.R) {
		labels[msg] = lab
		labeled[msg] = true
		maxInUse = rational.Max(maxInUse, lab)
	}

	observer := func(pr crossoff.Pair) {
		defer func() {
			// The pair is crossed after observation: account for it.
			remaining[pr.WriteCell][pr.Msg]--
			remaining[pr.ReadCell][pr.Msg]--
			lastTouched[pr.WriteCell] = labels[pr.Msg]
			lastTouched[pr.ReadCell] = labels[pr.Msg]
		}()
		if labeled[pr.Msg] {
			return
		}
		m := p.Message(pr.Msg)
		uS, okS := pendingMin(m.Sender, pr.Msg)
		uR, okR := pendingMin(m.Receiver, pr.Msg)
		var lab rational.R
		switch {
		case !okS && !okR:
			// Step 1a: larger than every label in use.
			lab = rational.FromInt(maxInUse.Floor() + 1)
		default:
			// Step 1b: between the last labels touched and the
			// smallest pending labeled message.
			upper := uS
			if !okS || (okR && uR.Less(upper)) {
				upper = uR
			}
			lower := rational.Max(lastTouched[m.Sender], lastTouched[m.Receiver])
			if !lower.Less(upper) {
				if schemeErr == nil {
					schemeErr = fmt.Errorf(
						"label: empty window for message %s: last touched %v, pending %v",
						m.Name, lower, upper)
				}
				lower = upper.Sub(rational.FromInt(1)) // degrade; Check will judge
			}
			lab = lower.Mid(upper)
		}
		// Steps 1c/1d share the label across the related class and
		// the skipped-over messages.
		for other := 0; other < p.NumMessages(); other++ {
			if uf.Find(other) == uf.Find(int(pr.Msg)) && !labeled[other] {
				setLabel(model.MessageID(other), lab)
			}
		}
		for _, sk := range pr.Skipped {
			if !labeled[sk.Msg] {
				setLabel(sk.Msg, lab)
			} else if !labels[sk.Msg].Equal(lab) {
				warnings = append(warnings, fmt.Sprintf(
					"label: skipped message %s already labeled %v, wanted %v (rule 1d)",
					p.Message(sk.Msg).Name, labels[sk.Msg], lab))
			}
		}
		if !labeled[pr.Msg] { // not covered by its own class loop? (always is; defensive)
			setLabel(pr.Msg, lab)
		}
	}

	res := crossoff.Run(p, crossoff.Options{
		Lookahead: opts.Lookahead,
		Budget:    opts.Budget,
		Picker:    opts.Picker,
		Observer:  observer,
	})
	if !res.DeadlockFree {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, res.Blocked))
	}
	if schemeErr != nil {
		return Labeling{}, schemeErr
	}
	for i, ok := range labeled {
		if !ok {
			// Unreachable for validated programs (every message has a
			// crossed pair), kept as a hard failure.
			return Labeling{}, fmt.Errorf("label: message %s never labeled", p.Message(model.MessageID(i)).Name)
		}
	}
	return Labeling{ByMessage: labels, Dense: densify(labels), Warnings: warnings}, nil
}

// refCase is one program the two implementations are compared on.
type refCase struct {
	name string
	p    *model.Program
	t    topology.Topology
}

// corpusRefCases replays the generation knobs of the differential
// oracle's checked-in fuzz corpus: seed, mutation count (first byte)
// and the cyclic flag.
func corpusRefCases(t *testing.T) []refCase {
	t.Helper()
	dir := filepath.Join("..", "diff", "testdata", "fuzz", "FuzzOracle")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	var out []refCase
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var seed int64
		opts := gen.Options{Mutations: -1}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			arg := strings.TrimSuffix(line[strings.Index(line, "(")+1:], ")")
			switch {
			case strings.HasPrefix(line, "int64("):
				if seed, err = strconv.ParseInt(arg, 10, 64); err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
			case strings.HasPrefix(line, "byte(") && opts.Mutations < 0:
				n, err := strconv.ParseUint(arg, 0, 8)
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				opts.Mutations = int(n % 8)
			case strings.HasPrefix(line, "bool("):
				opts.Cyclic = arg == "true"
			}
		}
		if opts.Mutations < 0 {
			opts.Mutations = 0
		}
		sc, err := gen.Generate(seed, opts)
		if err != nil {
			continue // impossible knobs, as the oracle skips them
		}
		out = append(out, refCase{"corpus/" + ent.Name(), sc.Program, sc.Topology})
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	return out
}

// generatedRefCases derives 200 deterministic scenarios spanning clean,
// mutated (some deadlocked), cyclic and deeply interleaved programs.
func generatedRefCases(t *testing.T) []refCase {
	t.Helper()
	out := make([]refCase, 0, 200)
	for i := int64(1); i <= 200; i++ {
		sc, err := gen.Generate(i, gen.Options{
			Mutations:  int(i % 5),
			Cyclic:     i%3 == 0,
			Interleave: int(i % 6), // 0 = per-seed default
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refCase{fmt.Sprintf("gen/%d", i), sc.Program, sc.Topology})
	}
	return out
}

// familyRefCases builds the operator-graph families at the sizes the
// cold-pipeline benchmark workload analyzes them at.
func familyRefCases(t *testing.T) []refCase {
	t.Helper()
	var out []refCase
	add := func(w *workload.Workload, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refCase{w.Name, w.Program, w.Topology})
	}
	add(workload.FFT(workload.FFTOptions{LogN: 7}))
	add(workload.Stencil(workload.StencilOptions{Rows: 16, Cols: 16, Iters: 4}))
	add(workload.Attention(workload.AttentionOptions{Tokens: 256, Experts: 16}))
	add(workload.PipelinedSort(workload.PipelinedSortOptions{Width: 2000, Rounds: 4}))
	add(workload.FIR(workload.FIROptions{Taps: 16, Outputs: 1024}))
	return out
}

// TestAssignMatchesReference holds the class-indexed labeler to the
// quadratic scheme it replaced: the whole Labeling — exact labels,
// dense ranks, warnings — and the error text must be identical under
// every crossing-off variant and picker.
func TestAssignMatchesReference(t *testing.T) {
	compare := func(t *testing.T, c refCase, name string, opts Options) {
		t.Helper()
		got, gotErr := Assign(c.p, opts)
		want, wantErr := referenceAssign(c.p, opts)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %s: error %v, reference %v", c.name, name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s: labeling differs\n got  %+v\n want %+v", c.name, name, got, want)
		}
	}
	pickers := []struct {
		name string
		pick crossoff.PairPicker
	}{{"default", nil}, {"fewest-skips", crossoff.ByFewestSkips}}

	small := append(corpusRefCases(t), generatedRefCases(t)...)
	for _, c := range small {
		routes, err := topology.Routes(c.p, c.t)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, pk := range pickers {
			compare(t, c, "strict/"+pk.name, Options{Picker: pk.pick})
			for capacity := 1; capacity <= 2; capacity++ {
				compare(t, c, fmt.Sprintf("lookahead-%d/%s", capacity, pk.name), Options{
					Lookahead: true,
					Budget:    crossoff.BudgetFromRoutes(routes, capacity),
					Picker:    pk.pick,
				})
			}
		}
	}
	for _, c := range familyRefCases(t) {
		compare(t, c, "strict/default", Options{})
	}
}
