//go:build race

package label

// raceEnabled reports whether the race detector instruments this
// build; checks it would slow to minutes skip themselves when it does.
const raceEnabled = true
