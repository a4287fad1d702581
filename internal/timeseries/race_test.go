//go:build race

package timeseries

// raceEnabled reports whether the race detector is on. Its instrumentation
// allocates, so allocation counts are not asserted under it.
const raceEnabled = true
