package verify

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/topology"
)

// checkPreconditionsRoutesReference is CheckPreconditionsRoutes as it
// stood before the count-then-fill rewrite — topology.Competing's map,
// then a label-count map and a sorted key slice per link — kept
// verbatim as the oracle.
func checkPreconditionsRoutesReference(routes [][]topology.Hop, dense []int, queuesPerLink int) PreconditionReport {
	var rep PreconditionReport
	competing := topology.Competing(routes)
	links := make([]topology.LinkID, 0, len(competing))
	for link := range competing {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, link := range links {
		msgs := competing[link]
		if len(msgs) > rep.MaxCompeting {
			rep.MaxCompeting = len(msgs)
		}
		groups := make(map[int]int)
		for _, m := range msgs {
			groups[dense[m]]++
		}
		labs := make([]int, 0, len(groups))
		for lab := range groups {
			labs = append(labs, lab)
		}
		sort.Ints(labs)
		for _, lab := range labs {
			n := groups[lab]
			if n > rep.MaxGroup {
				rep.MaxGroup = n
			}
			if n > queuesPerLink {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"link %d: %d competing messages share label %d but only %d queues",
					link, n, lab, queuesPerLink))
			}
		}
	}
	return rep
}

// TestCheckPreconditionsRoutesMatchesReference: the whole report —
// both maxima and every Violations string in its link-then-label order,
// which reaches wire responses — equals the map-based construction on
// the generated corpus (linear, ring and mesh; interleaved programs
// whose related messages share labels) at 1 to 3 queues per link.
func TestCheckPreconditionsRoutesMatchesReference(t *testing.T) {
	violations := 0
	for seed := int64(1); seed <= 300; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cyclic: seed%2 == 0, Interleave: 1 + int(seed%4), Cells: 4 + int(seed%13)})
		if err != nil {
			t.Fatal(err)
		}
		routes, err := topology.Routes(sc.Program, sc.Topology)
		if err != nil {
			t.Fatal(err)
		}
		for _, lab := range []label.Labeling{mustLabel(t, sc), label.Trivial(sc.Program)} {
			for q := 1; q <= 3; q++ {
				got := CheckPreconditionsRoutes(routes, lab.Dense, q)
				want := checkPreconditionsRoutesReference(routes, lab.Dense, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d queues per link:\n got %+v\nwant %+v", sc.Name, q, got, want)
				}
				violations += len(got.Violations)
			}
		}
	}
	if violations == 0 {
		t.Error("corpus produced no violation: the Violations order went unchecked")
	}
	// No routes at all: an empty report, not a panic.
	if got := CheckPreconditionsRoutes(nil, nil, 1); !reflect.DeepEqual(got, PreconditionReport{}) {
		t.Errorf("no routes: %+v", got)
	}
}

func mustLabel(t *testing.T, sc *gen.Scenario) label.Labeling {
	t.Helper()
	lab, err := label.Assign(sc.Program, label.Options{})
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return lab
}
