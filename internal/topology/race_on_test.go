//go:build race

package topology_test

// raceEnabled reports whether the race detector instruments this
// build; allocation-sensitive assertions skip themselves when it does.
const raceEnabled = true
