//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so the allocation guard skips itself.
const raceEnabled = false
