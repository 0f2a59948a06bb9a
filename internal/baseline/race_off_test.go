//go:build !race

package baseline

// raceEnabled reports whether the race detector is on. Under it, sync.Pool
// drops pooled items at random, so neither allocation counts nor whether a
// run reused an idle context can be asserted.
const raceEnabled = false
