package machine

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// buildPoolTableReference is buildPoolTable as it stood before the
// count-then-fill rewrite — an append per hop, a copy and a sort.Slice
// per pool — kept as the oracle (less the competing map, which the
// table no longer holds).
func (m *Machine) buildPoolTableReference() poolTable {
	numPools := len(m.links)
	tbl := poolTable{competingByPool: make([][]model.MessageID, numPools)}
	for id := range m.routes {
		for _, pool := range m.msgHops(model.MessageID(id)) {
			tbl.competingByPool[pool] = append(tbl.competingByPool[pool], model.MessageID(id))
		}
	}
	if m.labels != nil {
		tbl.labelOrder = make([][]model.MessageID, numPools)
		for pool, msgs := range tbl.competingByPool {
			if len(msgs) == 0 {
				continue
			}
			sorted := append([]model.MessageID(nil), msgs...)
			sort.Slice(sorted, func(i, j int) bool {
				li, lj := m.labels[sorted[i]], m.labels[sorted[j]]
				if li != lj {
					return li < lj
				}
				return sorted[i] < sorted[j]
			})
			tbl.labelOrder[pool] = sorted
		}
	}
	return tbl
}

// butterfly is the FFT data-flow graph of internal/workload (which
// this package cannot import): logN stages on a linear array, stage s
// exchanging between partners 2^s apart, so later stages cross long
// stretches of links and every link carries many messages.
func butterfly(t testing.TB, logN int) (*model.Program, topology.Topology) {
	t.Helper()
	n := 1 << logN
	b := model.NewBuilder()
	cells := b.AddCells("B", n)
	for s := 0; s < logN; s++ {
		stride := 1 << s
		for i := 0; i < n; i++ {
			if i&stride != 0 {
				continue
			}
			lo, hi := cells[i], cells[i+stride]
			x := b.DeclareMessage(fmt.Sprintf("X%d.%d", s, i), lo, hi, 1)
			y := b.DeclareMessage(fmt.Sprintf("Y%d.%d", s, i), hi, lo, 1)
			b.Write(lo, x).Read(hi, x).Write(hi, y).Read(lo, y)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, topology.Linear(n)
}

// TestPoolTablesMatchReference: the pool table — the competing sets
// and the label-sorted grant order, nil entries for untouched pools
// included — equals the old construction on the FFT butterfly
// (logN=6) and three generated meshes, with labels full of ties (the
// (label, message id) tie-break decides grant order) and without
// labels.
func TestPoolTablesMatchReference(t *testing.T) {
	type scenario struct {
		name string
		p    *model.Program
		topo topology.Topology
	}
	var scs []scenario
	p, topo := butterfly(t, 6)
	scs = append(scs, scenario{"fft(logN=6)", p, topo})
	for _, seed := range []int64{3, 11, 29} {
		sc, err := gen.Generate(seed, gen.Options{Topology: gen.TopoMesh, Cells: 9 + int(seed%7), Messages: 40, Cyclic: true})
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, scenario{sc.Name, sc.Program, sc.Topology})
	}
	for _, sc := range scs {
		tied := make([]int, sc.p.NumMessages())
		for i := range tied {
			tied[i] = (i * 7) % 5
		}
		for _, labels := range [][]int{tied, nil} {
			m, err := Compile(sc.p, sc.topo, nil, labels)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			got, want := m.pools, m.buildPoolTableReference()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, labels=%v: pool table differs from the reference\n got %+v\nwant %+v",
					sc.name, labels != nil, got, want)
			}
			if labels != nil && slices.IndexFunc(got.competingByPool, func(s []model.MessageID) bool { return len(s) > 0 }) < 0 {
				t.Errorf("%s: no competing set, nothing compared", sc.name)
			}
		}
	}
}
