package workload

import (
	"fmt"
	"sort"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// SortOptions parameterizes the odd-even transposition sort generator.
type SortOptions struct {
	// Values are the initial cell contents (one per cell); nil selects
	// a deterministic shuffled sequence of length N.
	Values []float64
	// N is the number of sorting cells when Values is nil.
	N int
	// Symmetric makes both partners of an exchange write before
	// reading. The resulting program is deadlocked under the strict
	// crossing-off procedure and deadlock-free under lookahead with
	// skip budget ≥ 1 — a generator-scale version of Fig 5's P1/§8
	// story. The default ("polite") ordering is strictly deadlock-free.
	Symmetric bool
}

// Sort generates odd-even transposition sort on a linear array
// Host, C1…CN: n compare-exchange rounds between alternating neighbor
// pairs, then each cell ships its resident value to the host (V1…VN,
// increasingly multi-hop). The host reads V1…VN, which must arrive
// sorted ascending.
func Sort(opts SortOptions) (*Workload, error) {
	values := opts.Values
	if values == nil {
		if opts.N < 1 {
			return nil, fmt.Errorf("workload: Sort needs Values or N ≥ 1")
		}
		values = make([]float64, opts.N)
		for i := range values {
			values[i] = float64((i*7+3)%(2*opts.N) + 1) // deterministic shuffle
		}
	}
	n := len(values)
	if n < 1 {
		return nil, fmt.Errorf("workload: Sort needs at least one value")
	}

	b := model.NewBuilder()
	host := b.AddHost("Host")
	cells := b.AddCells("C", n)

	logic := &sortLogic{
		symmetric: opts.Symmetric,
		resident:  make([]float64, n+1),
		outbox:    make([]float64, n+1),
		role:      make(map[model.MessageID]sortRole),
	}
	for j, v := range values {
		logic.resident[cells[j]] = v
	}

	// n rounds of compare-exchange between neighbors.
	for r := 0; r < n; r++ {
		for i := r % 2; i+1 < n; i += 2 {
			left, right := cells[i], cells[i+1]
			e := b.DeclareMessage(fmt.Sprintf("E%d.%d", r, i), left, right, 1)
			f := b.DeclareMessage(fmt.Sprintf("F%d.%d", r, i), right, left, 1)
			logic.role[e] = sortRole{kind: 'e'}
			logic.role[f] = sortRole{kind: 'f'}
			if opts.Symmetric {
				b.Write(left, e).Read(left, f)
				b.Write(right, f).Read(right, e)
			} else {
				b.Write(left, e).Read(left, f)
				b.Read(right, e).Write(right, f)
			}
		}
	}
	// Collection: each cell ships its final value to the host.
	vs := make([]model.MessageID, n)
	for j := 0; j < n; j++ {
		vs[j] = b.DeclareMessage(fmt.Sprintf("V%d", j+1), cells[j], host, 1)
		logic.role[vs[j]] = sortRole{kind: 'v'}
		b.Write(cells[j], vs[j])
	}
	for j := 0; j < n; j++ {
		b.Read(host, vs[j])
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: Sort(%d): %w", n, err)
	}

	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	expected := make(map[string][]machine.Word, n)
	for j := 0; j < n; j++ {
		expected[fmt.Sprintf("V%d", j+1)] = []machine.Word{machine.Word(sorted[j])}
	}

	variant := "polite"
	if opts.Symmetric {
		variant = "symmetric"
	}
	return &Workload{
		Name:            fmt.Sprintf("sort(n=%d,%s)", n, variant),
		Program:         p,
		Topology:        topology.Linear(n + 1),
		Logic:           logic,
		Expected:        expected,
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "odd-even transposition; the symmetric variant needs §8 " +
			"lookahead/buffering to be admitted",
	}, nil
}

type sortRole struct{ kind byte }

// sortLogic keeps one resident value per cell. An exchange sends the
// pre-exchange resident both ways; the left partner keeps the minimum,
// the right partner the maximum.
type sortLogic struct {
	symmetric bool
	resident  []float64
	outbox    []float64
	role      map[model.MessageID]sortRole
}

func (l *sortLogic) OnRead(cell model.CellID, msg model.MessageID, index int, w machine.Word) {
	switch l.role[msg].kind {
	case 'e': // right partner receives the left value
		l.outbox[cell] = l.resident[cell]
		if float64(w) > l.resident[cell] {
			l.resident[cell] = float64(w)
		}
	case 'f': // left partner receives the right value
		if float64(w) < l.resident[cell] {
			l.resident[cell] = float64(w)
		}
	case 'v': // host collection; values checked via Expected
	}
}

func (l *sortLogic) Produce(cell model.CellID, msg model.MessageID, index int) machine.Word {
	switch l.role[msg].kind {
	case 'e':
		return machine.Word(l.resident[cell])
	case 'f':
		if l.symmetric {
			// The write precedes the read, so resident is still the
			// pre-exchange value.
			return machine.Word(l.resident[cell])
		}
		return machine.Word(l.outbox[cell])
	default:
		return machine.Word(l.resident[cell])
	}
}

// Residents exposes the final cell contents (for tests that verify
// without host collection).
func (l *sortLogic) Residents(cells int) []float64 {
	out := make([]float64, 0, cells)
	for c := 1; c <= cells; c++ {
		out = append(out, l.resident[c])
	}
	return out
}
