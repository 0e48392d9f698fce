//go:build race

package core

// raceEnabled reports that the race detector instruments this build; its
// instrumentation allocates, so allocation-count tests skip.
const raceEnabled = true
