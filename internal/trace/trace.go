// Package trace renders programs, crossing-off schedules, labelings,
// and queue-assignment timelines as text diagrams in the style of the
// paper's figures. Everything here is presentation-only.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// ProgramTable renders a program as the paper's figures do: one column
// per cell, one operation per row (Fig 2/Fig 5 style).
func ProgramTable(p *model.Program) string {
	cols := make([][]string, p.NumCells())
	width := make([]int, p.NumCells())
	rows := 0
	for c := 0; c < p.NumCells(); c++ {
		cell := model.CellID(c)
		cols[c] = append(cols[c], p.Cell(cell).Name)
		for _, op := range p.Code(cell) {
			cols[c] = append(cols[c], p.OpString(op))
		}
		if len(cols[c]) > rows {
			rows = len(cols[c])
		}
		for _, s := range cols[c] {
			if len(s) > width[c] {
				width[c] = len(s)
			}
		}
	}
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < p.NumCells(); c++ {
			s := ""
			if r < len(cols[c]) {
				s = cols[c][r]
			}
			fmt.Fprintf(&b, "%-*s", width[c]+2, s)
		}
		b.WriteString("\n")
		if r == 0 {
			for c := 0; c < p.NumCells(); c++ {
				fmt.Fprintf(&b, "%-*s", width[c]+2, strings.Repeat("-", width[c]))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// ScheduleTable renders crossing-off rounds in Fig 4's layout: step
// number, then each crossed pair as "W(X)/R(X)".
func ScheduleTable(p *model.Program, rounds []crossoff.Round) string {
	var b strings.Builder
	for _, r := range rounds {
		parts := make([]string, 0, len(r.Pairs))
		for _, pr := range r.Pairs {
			parts = append(parts, crossoff.FormatPair(p, pr))
		}
		fmt.Fprintf(&b, "Step %2d: %s\n", r.Step, strings.Join(parts, "   "))
	}
	return b.String()
}

// Labels renders a labeling, one message per line, sorted by label
// then name.
func Labels(p *model.Program, lab label.Labeling) string {
	type entry struct {
		name  string
		exact string
		dense int
	}
	if len(lab.ByMessage) != p.NumMessages() || len(lab.Dense) != p.NumMessages() {
		return "(no labeling)\n"
	}
	entries := make([]entry, 0, p.NumMessages())
	for _, m := range p.Messages() {
		entries = append(entries, entry{m.Name, lab.ByMessage[m.ID].String(), lab.Dense[m.ID]})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].dense != entries[j].dense {
			return entries[i].dense < entries[j].dense
		}
		return entries[i].name < entries[j].name
	})
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%-8s label %-6s (dense %d)\n", e.name, e.exact, e.dense)
	}
	return b.String()
}

// Timeline renders bind/release events grouped by link, Fig 7
// lower-half style.
func Timeline(p *model.Program, t topology.Topology, events []machine.BindEvent) string {
	byLink := make(map[topology.LinkID][]machine.BindEvent)
	for _, e := range events {
		byLink[e.Link] = append(byLink[e.Link], e)
	}
	links := t.Links()
	var b strings.Builder
	for _, l := range links {
		evs := byLink[l.ID]
		if len(evs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "link %s--%s:\n", cellName(p, l.A), cellName(p, l.B))
		for _, e := range evs {
			verb := "bound to"
			if !e.Bound {
				verb = "released by"
			}
			fmt.Fprintf(&b, "  cycle %4d: queue %d %s %s\n", e.Cycle, e.QueueIdx, verb, p.Message(e.Msg).Name)
		}
	}
	return b.String()
}

func cellName(p *model.Program, c model.CellID) string {
	if int(c) < p.NumCells() {
		return p.Cell(c).Name
	}
	return fmt.Sprintf("cell%d", c)
}

// QueueSequences renders, per message, the sequence of links its words
// traverse (Fig 3 style).
func QueueSequences(p *model.Program, t topology.Topology) (string, error) {
	routes, err := topology.Routes(p, t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, m := range p.Messages() {
		var hops []string
		for _, h := range routes[m.ID] {
			hops = append(hops, fmt.Sprintf("%s→%s", cellName(p, h.From), cellName(p, h.To)))
		}
		fmt.Fprintf(&b, "%-8s %s\n", m.Name, strings.Join(hops, ", "))
	}
	return b.String(), nil
}

// QueueStatsTable renders per-queue lifetime counters: peak occupancy,
// words passed, rebinds, and extension accesses.
func QueueStatsTable(p *model.Program, t topology.Topology, stats []machine.QueueStat) string {
	links := t.Links()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-5s %-8s %-8s %-8s %-8s\n",
		"link", "queue", "max-occ", "words", "rebinds", "ext-acc")
	for _, qs := range stats {
		name := fmt.Sprintf("link%d", qs.Link)
		if int(qs.Link) < len(links) {
			l := links[qs.Link]
			name = fmt.Sprintf("%s--%s", cellName(p, l.A), cellName(p, l.B))
		}
		fmt.Fprintf(&b, "%-14s %-5d %-8d %-8d %-8d %-8d\n",
			name, qs.QueueIdx,
			qs.Stats.MaxOccupancy, qs.Stats.WordsPassed, qs.Stats.Rebinds, qs.Stats.ExtAccesses)
	}
	return b.String()
}

// RunSummary renders a simulation outcome in one block.
func RunSummary(p *model.Program, res *machine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome: %s after %d cycles\n", res.Outcome(), res.Cycles)
	if res.Deadlocked {
		b.WriteString(machine.DescribeBlocked(p, res.Blocked))
	}
	fmt.Fprintf(&b, "words moved: %d, grants: %d, releases: %d\n",
		res.Stats.WordsMoved, res.Stats.Grants, res.Stats.Releases)
	return b.String()
}
