package machine

import (
	"fmt"
	"math"
)

// maxCyclesFor derives the default cycle bound for a run: generous
// enough that any live configuration finishes, small enough that a
// stall is detected promptly. It is
//
//	max(16·(words+1)·(hops+1)·L + 4096, 2^14) · F
//
// the formula the simulator has always used, stretched by the run's
// largest link-latency factor L and largest fault slowdown F (1 when
// there is none; factors below 1 count as 1). A factor-k link or
// slowdown stretches any schedule by at most k, so a bound that
// ignored either would misreport slow runs as deadlocks the moment
// they outran the unit-latency estimate. One guard covers the whole
// product: a bound that does not fit in int — including one from a
// negative work estimate — is a typed ConfigError, never a silently
// wrapped (tiny or negative) bound.
func maxCyclesFor(words, hops, linkFactor, faultFactor int) (int, error) {
	linkFactor, faultFactor = max(linkFactor, 1), max(faultFactor, 1)
	n, fits := 16, true
	times := func(f int) {
		fits = fits && f >= 1 && n <= math.MaxInt/f
		if fits {
			n *= f
		}
	}
	times(words + 1)
	times(hops + 1)
	times(linkFactor)
	fits = fits && n <= math.MaxInt-4096
	n = max(n+4096, 1<<14)
	times(faultFactor)
	if !fits {
		return 0, &ConfigError{Field: "MaxCycles", Reason: fmt.Sprintf(
			"derived cycle bound max(16·(%d+1)·(%d+1)·%d+4096, 2^14)·%d (words, hops, link slowdown, fault slowdown) does not fit in int; set MaxCycles explicitly",
			words, hops, linkFactor, faultFactor)}
	}
	return n, nil
}
