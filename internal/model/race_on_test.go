//go:build race

package model

// raceEnabled reports whether the race detector instruments this
// build; the timing-ratio gate skips itself when it does.
const raceEnabled = true
