//go:build !race

package crossoff

// raceEnabled reports whether the race detector instruments this
// build; allocation-sensitive assertions skip themselves when it does.
const raceEnabled = false
