// Package detorderfix exercises the detorder analyzer: flagged
// map-range escapes, provably order-insensitive bodies, the
// collect-sort idiom, and both sysvet directives. The test loads it
// under a determinism-critical import path.
package detorderfix

import (
	"fmt"
	"sort"
	"strings"
)

func appends(m map[string]int) []string {
	var out []string
	for k, v := range m { // want `map iteration order escapes`
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}

func early(m map[string]int) string {
	for k := range m { // want `map iteration order escapes`
		if k != "" {
			return k
		}
	}
	return ""
}

func minKey(m map[int]bool) int {
	best := -1
	for k := range m { // want `map iteration order escapes`
		if best < 0 || k < best {
			best = k
		}
	}
	return best
}

func prints(m map[string]int) {
	for k := range m { // want `map iteration order escapes`
		fmt.Println(k)
	}
}

func renders(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `map iteration order escapes`
		b.WriteString(k)
	}
	return b.String()
}

func lastWins(m map[string]int) string {
	var k string
	for k = range m { // want `map iteration order escapes`
		_ = k
	}
	return k
}

func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // clean: the gathering half of collect-sort
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sums(m map[string]int) int {
	total := 0
	for _, v := range m { // clean: commutative accumulation
		total += v
	}
	return total
}

func keyedWrites(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m { // clean: each key written independently
		out[k] = v * 2
	}
	return out
}

func counts(m map[string]bool) int {
	n := 0
	for _, ok := range m { // clean: counters commute
		if ok {
			n++
		}
	}
	return n
}

func localOnly(m map[string][]int) int {
	total := 0
	for _, vs := range m { // clean: loop-local state plus commutative fold
		sum := 0
		for _, v := range vs {
			sum += v
		}
		total += sum
	}
	return total
}

func annotatedMin(m map[int]bool) int {
	best := -1
	//sysvet:unordered -- fixture: a minimum over keys is order-independent
	for k := range m {
		if best < 0 || k < best {
			best = k
		}
	}
	return best
}
