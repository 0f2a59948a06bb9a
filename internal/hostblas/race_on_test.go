//go:build race

package hostblas

// raceEnabled reports whether the race detector is on. Under it, sync.Pool
// drops pooled items at random, so allocation counts are meaningless.
const raceEnabled = true
