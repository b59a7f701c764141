package main

import (
	"fmt"
	"io"
)

// Verdicts of one (end-to-end metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b reads than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == lower {
		return (b - a) / a
	}
	return (a - b) / a
}

// spread is a value's min-max distance as a share of its median.
func spread(v value) float64 {
	if v.Value == 0 {
		return 0
	}
	return (v.Max - v.Min) / v.Value
}

// verdict judges one row. A metric whose rounds spread wider than its
// bound cannot resolve a move of the bound's size: if the two sides'
// rounds overlap it is unresolved, not unchanged; if they are disjoint
// every round of one side beat every round of the other, and the
// medians say which.
func verdict(m endToEndMetric, a, b value) string {
	w := worsening(a.Value, b.Value, m.Better)
	wide := spread(a) > m.Bound || spread(b) > m.Bound
	overlap := a.Max >= b.Min && b.Max >= a.Min
	switch {
	case wide && overlap:
		return verdictUnresolved
	case wide && w > 0, w > m.Bound:
		return verdictWorse
	}
	return verdictOK
}

// compareDocuments prints one row per (end-to-end metric, workload)
// and reports whether b is acceptable against a: no row worse, no
// workload failing more, every sim_digest and exact count equal.
func compareDocuments(w io.Writer, a, b *document) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from B\n", wa.Workload)
			ok = false
			continue
		}
		for _, m := range endToEndTable {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(m, va, vb)
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.3f %6.2f  %s\n", wa.Workload, m.Name, va.Value, vb.Value, ratio, m.Bound, v)
			if v == verdictWorse {
				ok = false
			}
		}
		if failedRatio(wb) > failedRatio(&wa) {
			fmt.Fprintf(w, "%-14s failed ratio rose: %d/%d then %d/%d\n", wa.Workload, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			ok = false
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-14s sim_digest differs: %s then %s\n", wa.Workload, wa.SimDigest, wb.SimDigest)
			ok = false
		}
		for _, name := range exactLayerCounts {
			if wa.PerLayer[name] != wb.PerLayer[name] {
				fmt.Fprintf(w, "%-14s exact count %s differs: %v then %v\n", wa.Workload, name, wa.PerLayer[name], wb.PerLayer[name])
				ok = false
			}
		}
	}
	return ok
}

func failedRatio(w *passResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
