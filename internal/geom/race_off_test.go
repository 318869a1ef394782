//go:build !race

package geom

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it because instrumentation allocates.
const raceEnabled = false
